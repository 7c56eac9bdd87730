#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "experiment/harness.hpp"
#include "obs/context.hpp"

namespace h2sim::experiment {

class ResultSink;

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

  /// Streaming consumer invoked on the worker thread after each trial, with
  /// the trial's private context (metrics, trace events, profiler) still
  /// alive (see sink.hpp). This is the one per-trial callback: reading a
  /// sweep trial's observability state, streaming aggregation and progress
  /// reporting all go through it.
  ResultSink* sink = nullptr;

  /// When false, run_trials() returns an empty vector instead of
  /// materializing one TrialResult per trial — the sink (and inspectors) are
  /// then the only consumers, and runner memory is O(jobs), not O(trials).
  bool collect_results = true;

  /// Enables the wall-time component profiler (obs::Profiler) in every
  /// per-trial context. Read the per-trial attribution from the sink via
  /// ctx.profiler. Off by default; disabled probes cost one branch.
  bool profile = false;
};

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
