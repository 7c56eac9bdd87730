#include "experiment/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <utility>

#include "experiment/sink.hpp"
#include "sim/parse_number.hpp"

namespace h2sim::experiment {

namespace {

/// The site a trial builds is the same for every seed unless a custom
/// site_builder (which may close over anything) or dummy injection (which
/// draws from a per-seed RNG) makes it per-seed.
bool site_is_seed_independent(const TrialConfig& cfg) {
  return !cfg.site_builder && cfg.defense.dummy_count == 0;
}

/// One built site per distinct IsidewithConfig of a sweep's seed-independent
/// configs, shared read-only by every worker.
struct SharedSite {
  web::IsidewithConfig recipe;
  web::Website site;
};

const web::Website* find_site(const std::vector<SharedSite>& sites,
                              const TrialConfig& cfg) {
  if (!site_is_seed_independent(cfg)) return nullptr;
  for (const SharedSite& s : sites) {
    if (s.recipe == cfg.site) return &s.site;
  }
  return nullptr;
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

  // Site construction leaves the per-trial loop: a trial behaves
  // byte-identically on a shared site and on the one it would build.
  std::vector<SharedSite> sites;
  for (const TrialConfig& cfg : cfgs) {
    if (site_is_seed_independent(cfg) && !find_site(sites, cfg)) {
      sites.push_back({cfg.site, web::make_isidewith_site(cfg.site)});
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  auto elapsed = [&wall_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };

  std::atomic<std::size_t> next{0};

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
        result = run_trial(cfgs[i], find_site(sites, cfgs[i]));
      }
      if (opts.sink) opts.sink->consume(i, cfgs[i], result, ctx);
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
  return results;
}

}  // namespace h2sim::experiment
