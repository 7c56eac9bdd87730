#pragma once

// Shared sweep machinery for the reproduction benches: config-list builders,
// the parallel run_trials front-end, and the BENCH_sweep.json perf record.
// Each bench reduces to (a) building TrialConfig lists, (b) calling
// SweepSession::run per sweep point, and (c) aggregating the returned
// results — the trial loop, threading, timing, and perf bookkeeping live
// here once.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "experiment/harness.hpp"
#include "experiment/runner.hpp"
#include "experiment/sink.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "sim/parse_number.hpp"

namespace h2sim::bench {

/// Prints `usage: <program> <synopsis>` to stderr and exits with status 2.
[[noreturn]] inline void usage_exit(char** argv, const char* synopsis) {
  std::fprintf(stderr, "usage: %s %s\n", argv[0], synopsis);
  std::exit(2);
}

/// Common CLI convention: argv[1] overrides the trials-per-point default. A
/// malformed or non-positive count prints the usage line and exits 2.
inline int trials_arg(int argc, char** argv, int def,
                      const char* synopsis = "[trials]") {
  if (argc < 2) return def;
  int trials = 0;
  if (!sim::parse_number(argv[1], &trials) || trials < 1) {
    usage_exit(argv, synopsis);
  }
  return trials;
}

/// `n` copies of `proto` with seed = seed_base + t. Inspector closures on
/// the prototype are copied into every config; only install closures that
/// write per-trial slots (or synchronize) — they run on worker threads.
inline std::vector<experiment::TrialConfig> seed_sweep(
    const experiment::TrialConfig& proto, std::uint64_t seed_base, int n) {
  std::vector<experiment::TrialConfig> cfgs(static_cast<std::size_t>(n), proto);
  for (int t = 0; t < n; ++t) {
    cfgs[static_cast<std::size_t>(t)].seed =
        seed_base + static_cast<std::uint64_t>(t);
  }
  return cfgs;
}

/// One timed sweep point, as recorded into BENCH_sweep.json.
struct SweepEntry {
  std::string label;
  std::size_t trials = 0;
  int jobs = 1;
  double wall_seconds = 0.0;
  double trials_per_sec = 0.0;
  /// > 0 only for run_with_speedup sweeps: wall(1 thread) / wall(N threads).
  double speedup_vs_1thread = 0.0;
  /// Allocation accounting summed over the sweep's TrialResults: simulator
  /// events executed, middlebox-forwarded packets, and hot-path heap
  /// allocations (slab growth + oversized callbacks + heap-array growth +
  /// payload-pool misses). The per-event/per-packet ratios are what
  /// bench/check_regression.py gates against bench/baseline.json.
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t hot_path_allocs = 0;
  double allocs_per_event = 0.0;
  double allocs_per_packet = 0.0;
  /// Timing-wheel scheduler work summed over the sweep's TrialResults:
  /// occupancy-bitmap probes, bucket-to-bucket cascade hops, and live-event
  /// cancellations. cascades_per_event is hardware-independent (a pure
  /// function of the workload's timer pattern), so check_regression.py can
  /// gate it the same way as allocs_per_event.
  std::uint64_t sched_slots_scanned = 0;
  std::uint64_t sched_cascades = 0;
  std::uint64_t sched_cancels = 0;
  double cascades_per_event = 0.0;
  /// > 0 only for run_streamed sweeps: trials/s through the campaign path
  /// (AggregatingSink, collect_results=false — no TrialResult vector).
  /// check_regression.py gates it with the same floor rule as
  /// trials_per_sec; a baseline entry that predates the field leaves it
  /// ungated until the baseline is refreshed (--strict-new refuses that).
  double campaign_trials_per_sec = 0.0;
  /// Bench-specific annotations (SweepSession::annotate) emitted as extra
  /// numeric keys on the entry's JSON object — e.g. bench_load_matrix tags
  /// each sweep with its client count and per-stage attack accuracy so the
  /// CI schema check and the perf gate can read them from BENCH_sweep.json.
  std::vector<std::pair<std::string, double>> extras;
};

/// Owns a bench run's perf record: every run()/run_with_speedup() appends an
/// entry, and the destructor writes BENCH_sweep.json (cwd) so CI can track
/// trials/sec and parallel speedup across PRs.
class SweepSession {
 public:
  explicit SweepSession(std::string bench_name)
      : name_(std::move(bench_name)), jobs_(experiment::resolve_jobs(0)) {}

  SweepSession(const SweepSession&) = delete;
  SweepSession& operator=(const SweepSession&) = delete;

  ~SweepSession() { write_json(); }

  int jobs() const { return jobs_; }

  /// Attaches `key: value` to the most recently recorded entry with this
  /// label (no-op with a stderr note when the label was never recorded).
  void annotate(const std::string& label, const std::string& key,
                double value) {
    for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
      if (it->label == label) {
        it->extras.emplace_back(key, value);
        return;
      }
    }
    std::fprintf(stderr, "[sweep] annotate: no entry labelled '%s'\n",
                 label.c_str());
  }

  /// Runs the configs on the session's worker count and records the timing.
  std::vector<experiment::TrialResult> run(
      const std::string& label, std::span<const experiment::TrialConfig> cfgs,
      experiment::RunOptions opts = {}) {
    opts.jobs = jobs_;
    return timed(label, cfgs, opts, /*speedup=*/0.0);
  }

  /// Runs the configs twice — single-threaded, then on the session's worker
  /// count — and records the measured speedup. The parallel results are
  /// returned; a mismatch against the sequential results (which the
  /// determinism guarantee forbids) is reported on stderr and in the JSON.
  std::vector<experiment::TrialResult> run_with_speedup(
      const std::string& label,
      std::span<const experiment::TrialConfig> cfgs) {
    experiment::RunOptions seq;
    seq.jobs = 1;
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<experiment::TrialResult> sequential =
        experiment::run_trials(cfgs, seq);
    const double wall_1 = seconds_since(t0);
    if (jobs_ <= 1) {
      record(label, sequential, 1, wall_1, 1.0);
      return sequential;
    }
    experiment::RunOptions par;
    par.jobs = jobs_;
    const auto t1 = std::chrono::steady_clock::now();
    std::vector<experiment::TrialResult> parallel =
        experiment::run_trials(cfgs, par);
    const double wall_n = seconds_since(t1);
    deterministic_ = deterministic_ && parallel == sequential;
    if (parallel != sequential) {
      std::fprintf(stderr,
                   "[sweep] %s: DETERMINISM VIOLATION — parallel results "
                   "differ from sequential\n",
                   label.c_str());
    }
    record(label, parallel, jobs_, wall_n, wall_n > 0 ? wall_1 / wall_n : 0.0);
    return parallel;
  }

  /// Runs the configs through an AggregatingSink with collect_results=false —
  /// the bounded-memory streaming path the campaign driver uses (no
  /// TrialResult vector is materialized) — and records the throughput as the
  /// entry's campaign_trials_per_sec. Returns the final aggregate NDJSON so
  /// callers can print it or cross-check against an in-memory reduction.
  /// events/packets/alloc counters stay zero for streamed entries: there is
  /// deliberately no result vector to sum them from, and the collected
  /// sweeps above already gate those ratios on the same workload.
  std::string run_streamed(const std::string& label,
                           std::span<const experiment::TrialConfig> cfgs,
                           experiment::AggregatingSink::Labeler labeler) {
    experiment::AggregatingSink sink(std::move(labeler));
    experiment::RunOptions opts;
    opts.jobs = jobs_;
    opts.sink = &sink;
    opts.collect_results = false;
    const auto t0 = std::chrono::steady_clock::now();
    experiment::run_trials(cfgs, opts);
    const double wall = seconds_since(t0);
    SweepEntry e;
    e.label = label;
    e.trials = cfgs.size();
    e.jobs = jobs_;
    e.wall_seconds = wall;
    e.campaign_trials_per_sec =
        wall > 0 ? static_cast<double>(cfgs.size()) / wall : 0.0;
    std::fprintf(stderr,
                 "[sweep] %s: %zu trials in %.2fs (%.1f campaign trials/s, "
                 "%d jobs, streamed)\n",
                 label.c_str(), e.trials, wall, e.campaign_trials_per_sec,
                 jobs_);
    entries_.push_back(std::move(e));
    return sink.table().ndjson();
  }

 private:
  static double seconds_since(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  }

  std::vector<experiment::TrialResult> timed(
      const std::string& label, std::span<const experiment::TrialConfig> cfgs,
      const experiment::RunOptions& opts, double speedup) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<experiment::TrialResult> results =
        experiment::run_trials(cfgs, opts);
    record(label, results, opts.jobs > 0 ? opts.jobs : jobs_,
           seconds_since(t0), speedup);
    return results;
  }

  void record(const std::string& label,
              const std::vector<experiment::TrialResult>& results, int jobs,
              double wall, double speedup) {
    SweepEntry e;
    e.label = label;
    e.trials = results.size();
    e.jobs = jobs;
    e.wall_seconds = wall;
    e.trials_per_sec =
        wall > 0 ? static_cast<double>(results.size()) / wall : 0.0;
    e.speedup_vs_1thread = speedup;
    for (const experiment::TrialResult& r : results) {
      e.events += r.sim_events_executed;
      e.packets += r.packets_forwarded;
      e.hot_path_allocs += r.sim_hot_path_allocs;
      e.sched_slots_scanned += r.sim_sched_slots_scanned;
      e.sched_cascades += r.sim_sched_cascades;
      e.sched_cancels += r.sim_sched_cancels;
    }
    e.allocs_per_event =
        e.events ? static_cast<double>(e.hot_path_allocs) / static_cast<double>(e.events) : 0.0;
    e.allocs_per_packet =
        e.packets ? static_cast<double>(e.hot_path_allocs) / static_cast<double>(e.packets) : 0.0;
    e.cascades_per_event =
        e.events ? static_cast<double>(e.sched_cascades) / static_cast<double>(e.events) : 0.0;
    std::fprintf(stderr,
                 "[sweep] %s: %zu trials in %.2fs (%.1f trials/s, %d jobs, "
                 "%.4f allocs/event, %.4f cascades/event)\n",
                 label.c_str(), e.trials, wall, e.trials_per_sec, jobs,
                 e.allocs_per_event, e.cascades_per_event);
    entries_.push_back(std::move(e));
  }

  void write_json() const {
    std::string out = "{\n";
    out += "  \"bench\": ";
    obs::json::append_string(out, name_);
    out += ",\n";
    out += "  \"jobs\": " + std::to_string(jobs_) + ",\n";
    out += "  \"deterministic\": ";
    out += deterministic_ ? "true" : "false";
    out += ",\n";
    std::size_t total_trials = 0;
    double total_wall = 0.0;
    out += "  \"sweeps\": [";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const SweepEntry& e = entries_[i];
      total_trials += e.trials;
      total_wall += e.wall_seconds;
      char buf[512];
      out += i ? ",\n    " : "\n    ";
      out += "{\"label\": ";
      obs::json::append_string(out, e.label);
      std::snprintf(buf, sizeof(buf),
                    ", \"trials\": %zu, \"jobs\": %d, \"wall_seconds\": %.6f, "
                    "\"trials_per_sec\": %.3f, \"speedup_vs_1thread\": %.3f, "
                    "\"events\": %llu, \"packets\": %llu, "
                    "\"hot_path_allocs\": %llu, \"allocs_per_event\": %.6f, "
                    "\"allocs_per_packet\": %.6f, "
                    "\"sched_slots_scanned\": %llu, \"sched_cascades\": %llu, "
                    "\"sched_cancels\": %llu, \"cascades_per_event\": %.6f, "
                    "\"campaign_trials_per_sec\": %.3f}",
                    e.trials, e.jobs, e.wall_seconds, e.trials_per_sec,
                    e.speedup_vs_1thread,
                    static_cast<unsigned long long>(e.events),
                    static_cast<unsigned long long>(e.packets),
                    static_cast<unsigned long long>(e.hot_path_allocs),
                    e.allocs_per_event, e.allocs_per_packet,
                    static_cast<unsigned long long>(e.sched_slots_scanned),
                    static_cast<unsigned long long>(e.sched_cascades),
                    static_cast<unsigned long long>(e.sched_cancels),
                    e.cascades_per_event,
                    e.campaign_trials_per_sec);
      out += buf;
      for (const auto& [key, value] : e.extras) {
        out.pop_back();  // reopen the entry object
        out += ", ";
        obs::json::append_string(out, key);
        std::snprintf(buf, sizeof(buf), ": %.6f}", value);
        out += buf;
      }
    }
    out += entries_.empty() ? "],\n" : "\n  ],\n";
    out += "  \"total_trials\": " + std::to_string(total_trials) + ",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", total_wall);
    out += std::string("  \"total_wall_seconds\": ") + buf + "\n}\n";
    if (!obs::json::write_file("BENCH_sweep.json", out)) {
      std::fprintf(stderr, "[sweep] cannot write BENCH_sweep.json\n");
    }
  }

  std::string name_;
  int jobs_;
  bool deterministic_ = true;
  std::vector<SweepEntry> entries_;
};

}  // namespace h2sim::bench
