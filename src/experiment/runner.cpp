#include "experiment/runner.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "experiment/scenario.hpp"
#include "experiment/sink.hpp"
#include "sim/parse_number.hpp"

namespace h2sim::experiment {

namespace {

/// Sweep-level site sharing: configs whose site is seed-independent and
/// built from the same recipe get one prebuilt, content-materialized site
/// between them (typically the whole sweep shares a single site). Configs
/// that already carry a prebuilt_site, use a custom builder, or inject
/// per-seed dummies are passed through untouched. Trials behave
/// byte-identically either way; this only moves site construction out of
/// the per-trial loop.
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

std::string expand_capture_path(const std::string& pattern, std::size_t index,
                                std::uint64_t seed, std::size_t total) {
  std::string out = pattern;
  bool substituted = false;
  auto replace_all = [&](const std::string& key, const std::string& value) {
    for (std::size_t pos = out.find(key); pos != std::string::npos;
         pos = out.find(key, pos + value.size())) {
      out.replace(pos, key.size(), value);
      substituted = true;
    }
  };
  replace_all("{index}", std::to_string(index));
  replace_all("{seed}", std::to_string(seed));
  if (!substituted && total > 1) {
    const std::size_t slash = out.find_last_of('/');
    const std::size_t dot = out.find_last_of('.');
    const std::string suffix = "_" + std::to_string(index);
    if (dot != std::string::npos && (slash == std::string::npos || dot > slash)) {
      out.insert(dot, suffix);
    } else {
      out += suffix;
    }
  }
  return out;
}

ProgressWindow::ProgressWindow(std::size_t capacity)
    : capacity_(capacity < 2 ? 2 : capacity) {
  ring_.resize(capacity_);
}

void ProgressWindow::sample(double elapsed_seconds, std::size_t done) {
  ring_[head_] = Sample{elapsed_seconds, done};
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

double ProgressWindow::rate() const {
  if (size_ == 0) return 0.0;
  const Sample& newest = ring_[(head_ + capacity_ - 1) % capacity_];
  if (size_ == 1) {
    // Lifetime mean until the window has a baseline.
    return newest.t > 0 ? static_cast<double>(newest.done) / newest.t : 0.0;
  }
  const Sample& oldest = ring_[(head_ + capacity_ - size_) % capacity_];
  const double dt = newest.t - oldest.t;
  if (dt <= 0) {
    return newest.t > 0 ? static_cast<double>(newest.done) / newest.t : 0.0;
  }
  const double dd =
      static_cast<double>(newest.done) - static_cast<double>(oldest.done);
  return dd > 0 ? dd / dt : 0.0;
}

double ProgressWindow::eta_seconds(std::size_t done, std::size_t total) const {
  if (done >= total) return 0.0;
  const double r = rate();
  return r > 0 ? static_cast<double>(total - done) / r : 0.0;
}

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
  std::atomic<std::size_t> done{0};
  std::atomic<std::uint64_t> setup_nanos_total{0};
  std::mutex progress_mu;
  ProgressWindow window;  // guarded by progress_mu
  bool final_sent = false;  // guarded by progress_mu
  // Wall seconds (scaled to ns) of the last delivered report; workers test
  // this atomically *before* taking progress_mu, so a rate-limited sweep
  // does not serialize per trial.
  std::atomic<std::int64_t> last_report_ns{-1};

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
        if (opts.capture_path.empty()) {
          result = run_trial(shared[i]);
        } else {
          TrialConfig cfg = shared[i];
          cfg.capture.path =
              expand_capture_path(opts.capture_path, i, cfg.seed, total);
          result = run_trial(cfg);
        }
      }
      setup_nanos_total.fetch_add(last_trial_setup_nanos(),
                                  std::memory_order_relaxed);
      if (opts.sink) opts.sink->consume(i, shared[i], result, ctx);
      if (opts.collect_results) results[i] = std::move(result);
      const std::size_t now_done =
          done.fetch_add(1, std::memory_order_relaxed) + 1;
      if (!opts.on_progress) continue;
      const bool is_final = now_done == total;
      const double t = elapsed();
      if (opts.progress_min_interval_seconds > 0 && !is_final) {
        // Cheap pre-mutex gate: claim the report slot by advancing the
        // atomic timestamp; losers (or too-soon reports) skip entirely.
        const std::int64_t now_ns = static_cast<std::int64_t>(t * 1e9);
        const std::int64_t interval_ns = static_cast<std::int64_t>(
            opts.progress_min_interval_seconds * 1e9);
        std::int64_t last = last_report_ns.load(std::memory_order_relaxed);
        if (last >= 0 && now_ns - last < interval_ns) continue;
        if (!last_report_ns.compare_exchange_strong(
                last, now_ns, std::memory_order_relaxed)) {
          continue;
        }
      }
      {
        std::lock_guard<std::mutex> lock(progress_mu);
        // Exactly one final report: the worker that completes the last trial
        // always delivers `done == total`, and (in rate-limited mode, where
        // callers opted out of per-trial reports) nothing after it.
        if (final_sent &&
            (opts.progress_min_interval_seconds > 0 || is_final)) {
          continue;
        }
        window.sample(t, now_done);
        Progress p;
        p.done = now_done;
        p.total = total;
        p.elapsed_seconds = t;
        p.trials_per_sec = window.rate();
        p.eta_seconds = window.eta_seconds(now_done, total);
        if (is_final) final_sent = true;
        opts.on_progress(p);
      }
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
