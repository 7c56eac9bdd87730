#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "experiment/harness.hpp"
#include "obs/context.hpp"

namespace h2sim::experiment {

class ResultSink;

/// Progress report for a sweep in flight. `eta_seconds` extrapolates from
/// the *recent* completion rate (a sliding window over the last reports),
/// not the lifetime mean — on heterogeneous grids (e.g. a load sweep whose
/// late cells run 10x slower) the lifetime mean wildly underestimates the
/// remaining time.
struct Progress {
  std::size_t done = 0;
  std::size_t total = 0;
  double elapsed_seconds = 0.0;
  double eta_seconds = 0.0;
  /// Completion rate over the sliding window (lifetime mean until the
  /// window has two samples); 0 when no time has passed.
  double trials_per_sec = 0.0;
};

/// Sliding-window completion-rate estimator behind Progress::eta_seconds,
/// exposed so the bias fix is unit-testable. Feed it (elapsed, done) samples;
/// rate() is the slope across the oldest and newest retained sample —
/// capacity bounds how far back "recent" reaches. With fewer than two
/// samples it falls back to the lifetime mean of the newest sample.
class ProgressWindow {
 public:
  explicit ProgressWindow(std::size_t capacity = 32);
  void sample(double elapsed_seconds, std::size_t done);
  /// Trials per second; 0 when unknowable (no samples / no elapsed time).
  double rate() const;
  /// (total - done) / rate(); 0 when done == total or rate is unknowable.
  double eta_seconds(std::size_t done, std::size_t total) const;

 private:
  struct Sample {
    double t = 0.0;
    std::size_t done = 0;
  };
  std::vector<Sample> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
};

/// Options for run_trials().
struct RunOptions {
  /// Worker count. <= 0 means: the H2SIM_JOBS environment variable if its
  /// whole value is a positive integer ("4x", "0" and "-2" do not count),
  /// otherwise std::thread::hardware_concurrency().
  /// Clamped to the number of trials; 1 runs inline on the calling thread.
  int jobs = 0;

  /// Tracer enable mask installed in every per-trial context (see
  /// obs::component_bit). Off by default, matching standalone run_trial.
  std::uint32_t trace_mask = 0;

  /// Invoked after each trial completes, serialized under an internal mutex
  /// (so the callback itself may be non-reentrant), from whichever worker
  /// finished the trial.
  std::function<void(const Progress&)> on_progress;

  /// Opt-in progress rate limit: when > 0, intermediate reports are dropped
  /// unless at least this much wall time has passed since the last one —
  /// workers check an atomic timestamp *before* touching the progress mutex,
  /// so million-trial sweeps don't serialize on it. Two guarantees hold
  /// regardless of the interval: exactly one final `done == total` report is
  /// delivered, and no report is delivered after it. 0 (default) keeps the
  /// one-report-per-trial behaviour.
  double progress_min_interval_seconds = 0.0;

  /// Streaming consumer invoked on the worker thread after each trial, with
  /// the trial's private context (metrics, trace events, profiler) still
  /// alive (see sink.hpp). This is the one way to read a sweep trial's
  /// observability state.
  ResultSink* sink = nullptr;

  /// When false, run_trials() returns an empty vector instead of
  /// materializing one TrialResult per trial — the sink (and inspectors) are
  /// then the only consumers, and runner memory is O(jobs), not O(trials).
  bool collect_results = true;

  /// Enables the wall-time component profiler (obs::Profiler) in every
  /// per-trial context. Read the per-trial attribution from the sink via
  /// ctx.profiler. Off by default; disabled probes cost one branch.
  bool profile = false;

  /// When non-empty, every trial runs with wire capture enabled and writes a
  /// PCAPNG file to this path, with "{index}" / "{seed}" placeholders
  /// substituted per trial (e.g. "caps/trial_{seed}.pcapng"). A pattern
  /// without either placeholder gets "_<index>" inserted before its
  /// extension when the sweep has more than one trial, so concurrent trials
  /// never write the same file. Vantage-point flags come from each config's
  /// TrialConfig::capture; its path field is overwritten.
  std::string capture_path;
};

/// Expands a capture_path pattern for one trial (exposed for tests).
std::string expand_capture_path(const std::string& pattern, std::size_t index,
                                std::uint64_t seed, std::size_t total);

/// Resolves an effective worker count from `requested` using the RunOptions
/// rules above (without the trial-count clamp).
int resolve_jobs(int requested);

/// Runs every config, using up to RunOptions::jobs worker threads, and
/// returns results in input order (empty when opts.collect_results is
/// false — stream through opts.sink instead).
///
/// Determinism: each trial executes inside a fresh private obs::Context, and
/// a trial is a pure function of its TrialConfig — so results[i] (and the
/// metrics snapshot its sink observes) is bit-identical whatever the
/// thread count, scheduling order, or neighboring configs. The sequential
/// path (jobs = 1) is the same code with the same per-trial contexts.
///
/// The per-config inspectors (wire_log_inspector, trace_inspector) run on
/// worker threads. Configs sharing one closure that writes shared
/// state must synchronize; closures writing per-trial slots need not.
///
/// After the sweep, aggregate counters (experiment.trials_run,
/// experiment.sweep_wall_seconds, experiment.sweep_trials_per_sec) are
/// recorded in the *caller's* current context.
std::vector<TrialResult> run_trials(std::span<const TrialConfig> cfgs,
                                    const RunOptions& opts = {});

}  // namespace h2sim::experiment
