// The parallel trial runner: job resolution, bit-identical determinism
// between sequential and parallel execution (results AND metrics
// snapshots), per-trial context isolation, and the per-trial RNG audit —
// a trial's stream is derived from its own seed, so concurrent neighbors
// cannot perturb it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "experiment/runner.hpp"
#include "obs/context.hpp"

namespace h2sim::experiment {
namespace {

/// Short trials for runner-mechanics tests: a two-object site loads in a
/// fraction of the default page's simulated time.
TrialConfig quick_config(std::uint64_t seed) {
  TrialConfig cfg;
  cfg.seed = seed;
  cfg.attack.enabled = false;
  cfg.site_builder = [] { return web::make_two_object_site(20000, 40000); };
  return cfg;
}

TEST(ResolveJobs, ExplicitThenEnvThenHardware) {
  EXPECT_EQ(resolve_jobs(3), 3);
  ASSERT_EQ(setenv("H2SIM_JOBS", "5", 1), 0);
  EXPECT_EQ(resolve_jobs(0), 5);
  ASSERT_EQ(setenv("H2SIM_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(resolve_jobs(0), 1);  // falls through to hardware_concurrency
  ASSERT_EQ(unsetenv("H2SIM_JOBS"), 0);
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_EQ(resolve_jobs(-4), resolve_jobs(0));
}

TEST(Runner, EmptyConfigListYieldsEmptyResults) {
  EXPECT_TRUE(run_trials({}).empty());
}

TEST(Runner, ResultsComeBackInInputOrder) {
  std::vector<TrialConfig> cfgs;
  for (std::uint64_t s : {900, 901, 902, 903, 904, 905}) {
    cfgs.push_back(quick_config(s));
  }
  RunOptions opts;
  opts.jobs = 3;
  const auto parallel = run_trials(cfgs, opts);
  ASSERT_EQ(parallel.size(), cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_EQ(parallel[i], run_trial(cfgs[i])) << "slot " << i;
  }
}

// The acceptance-criterion test: over 32 seeds, run_trials with several
// workers must reproduce the sequential path bit for bit — TrialResults,
// the serialized metrics snapshots, and the JSON each renders to.
TEST(Runner, SequentialAndParallelBitIdenticalOver32Seeds) {
  constexpr std::size_t kSeeds = 32;
  auto build = [](std::vector<obs::MetricsSnapshot>& snaps) {
    std::vector<TrialConfig> cfgs;
    for (std::size_t i = 0; i < kSeeds; ++i) {
      TrialConfig cfg = quick_config(3000 + i);
      cfg.metrics_inspector = [&snaps, i](const obs::MetricsSnapshot& s) {
        snaps[i] = s;  // per-trial slot: safe from concurrent inspectors
      };
      cfgs.push_back(std::move(cfg));
    }
    return cfgs;
  };

  std::vector<obs::MetricsSnapshot> seq_snaps(kSeeds), par_snaps(kSeeds);
  RunOptions seq;
  seq.jobs = 1;
  const auto sequential = run_trials(build(seq_snaps), seq);
  RunOptions par;
  par.jobs = 4;
  const auto parallel = run_trials(build(par_snaps), par);

  ASSERT_EQ(sequential.size(), kSeeds);
  ASSERT_EQ(parallel.size(), kSeeds);
  for (std::size_t i = 0; i < kSeeds; ++i) {
    EXPECT_EQ(sequential[i], parallel[i]) << "TrialResult diverged at seed slot " << i;
    EXPECT_EQ(seq_snaps[i], par_snaps[i]) << "MetricsSnapshot diverged at seed slot " << i;
    // Byte-identical serialized form, the strongest statement of the
    // guarantee (and what a results file on disk would contain).
    EXPECT_EQ(obs::metrics_json(seq_snaps[i]), obs::metrics_json(par_snaps[i]));
  }
}

// RNG audit companion: a trial is a pure function of its seed, so running
// the same seed inside two different batches — surrounded by different
// concurrent neighbors — must give identical results and snapshots. Any
// residual shared engine (rand(), a process-wide stream) would make the
// outcome depend on who else is running.
TEST(Runner, SameSeedUnaffectedByConcurrentNeighbors) {
  constexpr std::uint64_t kShared = 4242;

  auto run_batch = [](std::vector<std::uint64_t> seeds, std::size_t shared_at,
                      obs::MetricsSnapshot* snap) {
    std::vector<TrialConfig> cfgs;
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      TrialConfig cfg = quick_config(seeds[i]);
      if (i == shared_at) {
        cfg.metrics_inspector = [snap](const obs::MetricsSnapshot& s) {
          *snap = s;
        };
      }
      cfgs.push_back(std::move(cfg));
    }
    RunOptions opts;
    opts.jobs = 4;
    return run_trials(cfgs, opts)[shared_at];
  };

  obs::MetricsSnapshot snap_a, snap_b;
  const TrialResult a =
      run_batch({kShared, 11, 12, 13, 14, 15}, 0, &snap_a);
  const TrialResult b =
      run_batch({21, 22, 23, kShared, 24, 25, 26, 27}, 3, &snap_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(snap_a, snap_b);
}

TEST(Runner, ProgressReportsEveryTrialExactlyOnce) {
  std::vector<TrialConfig> cfgs;
  for (std::uint64_t s : {700, 701, 702, 703, 704}) cfgs.push_back(quick_config(s));

  std::vector<Progress> seen;
  RunOptions opts;
  opts.jobs = 2;
  // The runner serializes on_progress internally; the vector needs no lock.
  // Callbacks can arrive out of `done` order (the count is taken before the
  // serialization lock), so assert on the set of reports, not the sequence.
  opts.on_progress = [&seen](const Progress& p) { seen.push_back(p); };
  run_trials(cfgs, opts);

  ASSERT_EQ(seen.size(), cfgs.size());
  std::vector<std::size_t> done_counts;
  for (const Progress& p : seen) {
    EXPECT_EQ(p.total, cfgs.size());
    EXPECT_GE(p.elapsed_seconds, 0.0);
    EXPECT_GE(p.eta_seconds, 0.0);
    if (p.done == cfgs.size()) {
      EXPECT_EQ(p.eta_seconds, 0.0);
    }
    done_counts.push_back(p.done);
  }
  std::sort(done_counts.begin(), done_counts.end());
  for (std::size_t i = 0; i < done_counts.size(); ++i) {
    EXPECT_EQ(done_counts[i], i + 1);
  }
}

// The ETA-bias fix: a sliding window must track the *recent* completion
// rate. Simulate a heterogeneous grid — 100 fast trials at 100/s, then slow
// trials at 10/s. The lifetime mean would predict the remaining 100 slow
// trials finish 4x too soon; the window converges on the true rate.
TEST(ProgressWindow, TracksRecentRateNotLifetimeMean) {
  ProgressWindow w(8);
  w.sample(0.0, 0);
  w.sample(1.0, 100);  // fast phase: 100 trials/s
  // Slow phase: 10 trials/s for 10 samples — enough to fill the window.
  for (int i = 1; i <= 10; ++i) {
    w.sample(1.0 + i, 100 + static_cast<std::size_t>(10 * i));
  }
  EXPECT_NEAR(w.rate(), 10.0, 1e-9);
  // 200 done, 300 to go at 10/s -> 30 s. Lifetime mean (200/11 ~ 18.2/s)
  // would claim ~16.5 s.
  EXPECT_NEAR(w.eta_seconds(200, 500), 30.0, 1e-6);
}

TEST(ProgressWindow, FallsBackToLifetimeMeanWhenSparse) {
  ProgressWindow w;
  EXPECT_EQ(w.rate(), 0.0);
  EXPECT_EQ(w.eta_seconds(0, 10), 0.0);  // unknowable, not negative/inf
  w.sample(2.0, 10);
  EXPECT_NEAR(w.rate(), 5.0, 1e-12);  // single sample: lifetime mean
  EXPECT_NEAR(w.eta_seconds(10, 20), 2.0, 1e-9);
  EXPECT_EQ(w.eta_seconds(20, 20), 0.0);  // done
}

// Rate-limited progress: intermediate reports may be dropped, but exactly
// one final done == total report always arrives, and none after it.
TEST(Runner, RateLimitedProgressStillDeliversExactlyOneFinal) {
  std::vector<TrialConfig> cfgs;
  for (std::uint64_t s = 600; s < 612; ++s) cfgs.push_back(quick_config(s));

  std::vector<Progress> seen;
  RunOptions opts;
  opts.jobs = 3;
  // An interval far longer than the sweep: every intermediate report is
  // rate-limited away; only the guaranteed final survives.
  opts.progress_min_interval_seconds = 3600.0;
  opts.on_progress = [&seen](const Progress& p) { seen.push_back(p); };
  run_trials(cfgs, opts);

  std::size_t finals = 0;
  for (const Progress& p : seen) {
    if (p.done == p.total) ++finals;
  }
  EXPECT_EQ(finals, 1u);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.back().done, cfgs.size());  // final is last
  EXPECT_EQ(seen.back().eta_seconds, 0.0);
  // The long interval drops the other 11 reports (the very first may slip
  // through before the timestamp is primed).
  EXPECT_LE(seen.size(), 2u);
}

TEST(Runner, UnlimitedProgressKeepsPerTrialReports) {
  std::vector<TrialConfig> cfgs;
  for (std::uint64_t s = 620; s < 625; ++s) cfgs.push_back(quick_config(s));
  std::size_t reports = 0, finals = 0;
  RunOptions opts;
  opts.jobs = 1;
  opts.on_progress = [&](const Progress& p) {
    ++reports;
    if (p.done == p.total) ++finals;
  };
  run_trials(cfgs, opts);
  EXPECT_EQ(reports, cfgs.size());
  EXPECT_EQ(finals, 1u);
}

TEST(Runner, ContextInspectorSeesTrialPrivateMetricsAndTraces) {
  std::vector<TrialConfig> cfgs = {quick_config(800), quick_config(801)};

  std::vector<std::uint64_t> requests(cfgs.size(), 0);
  std::vector<std::size_t> events(cfgs.size(), 0);
  RunOptions opts;
  opts.jobs = 2;
  opts.trace_mask = obs::component_bit(obs::Component::kWeb);
  opts.context_inspector = [&](std::size_t i, const obs::Context& ctx) {
    requests[i] = ctx.metrics.counter_value("web.requests_sent");
    events[i] = ctx.tracer.events().size();
  };
  run_trials(cfgs, opts);

  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_GT(requests[i], 0u) << "trial " << i;
    EXPECT_GT(events[i], 0u) << "trial " << i;
  }
}

// The runner leaves the caller's context alone apart from the documented
// sweep aggregates — per-trial instrumentation must not leak into it.
TEST(Runner, CallerContextOnlyReceivesSweepAggregates) {
  obs::Context caller;
  obs::ScopedContext scope(caller);
  std::vector<TrialConfig> cfgs = {quick_config(850), quick_config(851)};
  RunOptions opts;
  opts.jobs = 2;
  run_trials(cfgs, opts);
  EXPECT_EQ(caller.metrics.counter_value("experiment.trials_run"), 2u);
  EXPECT_GT(caller.metrics.gauge_value("experiment.sweep_trials_per_sec"), 0.0);
  EXPECT_EQ(caller.metrics.gauge_value("experiment.sweep_jobs"), 2.0);
  EXPECT_EQ(caller.metrics.counter_value("web.requests_sent"), 0u);
  EXPECT_EQ(caller.metrics.counter_value("tcp.segments_sent"), 0u);
}

TEST(ObsContext, ScopedContextInstallsAndRestores) {
  obs::Context ctx;
  EXPECT_EQ(&obs::current(), &obs::default_context());
  {
    obs::ScopedContext scope(ctx);
    EXPECT_EQ(&obs::current(), &ctx);
    EXPECT_EQ(&obs::metrics(), &ctx.metrics);
    EXPECT_EQ(&obs::tracer(), &ctx.tracer);
    obs::Context inner;
    {
      obs::ScopedContext nested(inner);
      EXPECT_EQ(&obs::current(), &inner);
    }
    EXPECT_EQ(&obs::current(), &ctx);
  }
  EXPECT_EQ(&obs::current(), &obs::default_context());
}

}  // namespace
}  // namespace h2sim::experiment
