#include "experiment/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "experiment/scenario.hpp"
#include "experiment/sink.hpp"
#include "sim/parse_number.hpp"

namespace h2sim::experiment {

namespace {

/// Sweep-level site sharing: configs whose site is seed-independent and
/// built from the same recipe get one prebuilt site between them (typically
/// the whole sweep shares a single site). Configs that already carry a
/// prebuilt_site, use a custom builder, or inject per-seed dummies are
/// passed through untouched. Trials behave byte-identically either way;
/// this only moves site construction out of the per-trial loop.
std::vector<TrialConfig> share_prebuilt_sites(std::span<const TrialConfig> cfgs) {
  std::vector<TrialConfig> out(cfgs.begin(), cfgs.end());
  struct Recipe {
    const TrialConfig* exemplar;
    std::shared_ptr<const web::Website> site;
  };
  std::vector<Recipe> recipes;
  for (TrialConfig& cfg : out) {
    if (cfg.prebuilt_site || !site_is_seed_independent(cfg)) continue;
    Recipe* found = nullptr;
    for (Recipe& r : recipes) {
      if (same_site_recipe(*r.exemplar, cfg)) {
        found = &r;
        break;
      }
    }
    if (!found) {
      recipes.push_back({&cfg, prebuild_site(cfg)});
      found = &recipes.back();
    }
    cfg.prebuilt_site = found->site;
  }
  return out;
}

}  // namespace

int resolve_jobs(int requested) {
  if (requested > 0) return requested;
  int n = 0;
  if (const char* env = std::getenv("H2SIM_JOBS");
      env && sim::parse_number(env, &n) && n > 0) {
    return n;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

std::vector<TrialResult> run_trials(std::span<const TrialConfig> cfgs,
                                    const RunOptions& opts) {
  const std::size_t total = cfgs.size();
  std::vector<TrialResult> results(opts.collect_results ? total : 0);
  if (total == 0) return results;

  int jobs = resolve_jobs(opts.jobs);
  if (static_cast<std::size_t>(jobs) > total) jobs = static_cast<int>(total);

  const std::vector<TrialConfig> shared = share_prebuilt_sites(cfgs);

  const auto wall_start = std::chrono::steady_clock::now();
  auto elapsed = [&wall_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> setup_nanos_total{0};

  // Work stealing via a shared atomic index: a worker that lands a short
  // trial immediately claims the next unclaimed one, so long trials never
  // leave siblings idle. Result slots are indexed by config position, which
  // makes output order independent of claim order.
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      // A fresh context per trial: all instrumentation this trial performs —
      // down to per-packet counters in net/tcp — lands in storage no other
      // trial can reach, and every trial starts from an empty registry.
      obs::Context ctx;
      ctx.tracer.set_mask(opts.trace_mask);
      ctx.profiler.set_enabled(opts.profile);
      TrialResult result;
      {
        obs::ScopedContext scope(ctx);
        result = run_trial(shared[i]);
      }
      setup_nanos_total.fetch_add(last_trial_setup_nanos(),
                                  std::memory_order_relaxed);
      if (opts.sink) opts.sink->consume(i, shared[i], result, ctx);
      if (opts.collect_results) results[i] = std::move(result);
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Back on the calling thread: record sweep aggregates in the caller's
  // context so dashboards see the sweep even though trial-local metrics
  // died with their contexts.
  const double wall = elapsed();
  auto& reg = obs::metrics();
  reg.counter("experiment.trials_run").add(total);
  reg.gauge("experiment.sweep_wall_seconds").set(wall);
  reg.gauge("experiment.sweep_trials_per_sec")
      .set(wall > 0 ? static_cast<double>(total) / wall : 0.0);
  reg.gauge("experiment.sweep_jobs").set(jobs);
  // Mean per-trial world-construction time (wall clock, summed across
  // workers). With sweep-level site sharing this is the residual setup the
  // templates could not amortize.
  reg.gauge("experiment.setup_seconds_mean")
      .set(static_cast<double>(
               setup_nanos_total.load(std::memory_order_relaxed)) /
           1e9 / static_cast<double>(total));
  return results;
}

}  // namespace h2sim::experiment
