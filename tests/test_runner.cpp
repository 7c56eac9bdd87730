// The parallel trial runner: job resolution, bit-identical determinism
// between sequential and parallel execution (results AND metrics
// snapshots), per-trial context isolation, and the per-trial RNG audit —
// a trial's stream is derived from its own seed, so concurrent neighbors
// cannot perturb it.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "experiment/runner.hpp"
#include "experiment/sink.hpp"
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

/// Keeps each trial's final metrics snapshot in its index's slot; the slots
/// are sized up front, so concurrent consume() calls never touch the same
/// element.
struct SnapshotSink : ResultSink {
  explicit SnapshotSink(std::size_t n) : snaps(n) {}
  void consume(std::size_t index, const TrialConfig&, const TrialResult&,
               const obs::Context& ctx) override {
    snaps[index] = ctx.metrics.snapshot();
  }
  std::vector<obs::MetricsSnapshot> snaps;
};

TEST(ResolveJobs, ExplicitThenEnvThenHardware) {
  EXPECT_EQ(resolve_jobs(3), 3);
  ASSERT_EQ(unsetenv("H2SIM_JOBS"), 0);
  const int unset = resolve_jobs(0);  // hardware_concurrency
  EXPECT_GE(unset, 1);
  EXPECT_EQ(resolve_jobs(-4), unset);
  ASSERT_EQ(setenv("H2SIM_JOBS", "5", 1), 0);
  EXPECT_EQ(resolve_jobs(0), 5);
  // Only a whole positive integer counts; anything else acts as unset.
  for (const char* bad :
       {"not-a-number", "4x", "abc", "0", "-2", " 4", "+4", "4.0", ""}) {
    ASSERT_EQ(setenv("H2SIM_JOBS", bad, 1), 0);
    EXPECT_EQ(resolve_jobs(0), unset) << "H2SIM_JOBS=\"" << bad << "\"";
  }
  ASSERT_EQ(unsetenv("H2SIM_JOBS"), 0);
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
  std::vector<TrialConfig> cfgs;
  for (std::size_t i = 0; i < kSeeds; ++i) cfgs.push_back(quick_config(3000 + i));

  SnapshotSink seq_sink(kSeeds), par_sink(kSeeds);
  RunOptions seq;
  seq.jobs = 1;
  seq.sink = &seq_sink;
  const auto sequential = run_trials(cfgs, seq);
  RunOptions par;
  par.jobs = 4;
  par.sink = &par_sink;
  const auto parallel = run_trials(cfgs, par);
  const std::vector<obs::MetricsSnapshot>& seq_snaps = seq_sink.snaps;
  const std::vector<obs::MetricsSnapshot>& par_snaps = par_sink.snaps;

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
    for (std::uint64_t seed : seeds) cfgs.push_back(quick_config(seed));
    SnapshotSink sink(cfgs.size());
    RunOptions opts;
    opts.jobs = 4;
    opts.sink = &sink;
    const TrialResult r = run_trials(cfgs, opts)[shared_at];
    *snap = sink.snaps[shared_at];
    return r;
  };

  obs::MetricsSnapshot snap_a, snap_b;
  const TrialResult a =
      run_batch({kShared, 11, 12, 13, 14, 15}, 0, &snap_a);
  const TrialResult b =
      run_batch({21, 22, 23, kShared, 24, 25, 26, 27}, 3, &snap_b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(snap_a, snap_b);
}

TEST(Runner, SinkSeesTrialPrivateMetricsAndTraces) {
  std::vector<TrialConfig> cfgs = {quick_config(800), quick_config(801)};

  struct CountingSink : ResultSink {
    std::vector<std::uint64_t> requests = std::vector<std::uint64_t>(2, 0);
    std::vector<std::size_t> events = std::vector<std::size_t>(2, 0);
    void consume(std::size_t i, const TrialConfig&, const TrialResult&,
                 const obs::Context& ctx) override {
      requests[i] = ctx.metrics.counter_value("web.requests_sent");
      events[i] = ctx.tracer.events().size();
    }
  } sink;
  RunOptions opts;
  opts.jobs = 2;
  opts.trace_mask = obs::component_bit(obs::Component::kWeb);
  opts.sink = &sink;
  run_trials(cfgs, opts);
  const std::vector<std::uint64_t>& requests = sink.requests;
  const std::vector<std::size_t>& events = sink.events;

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
