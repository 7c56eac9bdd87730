#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace h2sim::obs {

/// Fixed-bucket histogram state. `edges` are the upper bounds of the first
/// `edges.size()` buckets; one overflow bucket follows, so
/// `counts.size() == edges.size() + 1`. A sample `v` lands in the first
/// bucket whose edge satisfies `v <= edge`.
struct HistogramData {
  std::vector<double> edges;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Combines another histogram into this one. Histograms are mergeable only
  /// when their bucket edges are identical (the common case: every producer
  /// registered the same schema); an empty-edged accumulator adopts the other
  /// side's edges wholesale. Returns false — leaving this histogram
  /// untouched — when the edges differ, so callers can surface schema drift
  /// instead of silently mixing incompatible buckets. Bucket counts are
  /// integers, so merging is exact and order-independent.
  bool merge(const HistogramData& o);
  /// merge() that treats edge mismatch as a programming error (asserts in
  /// debug builds, no-op in release).
  HistogramData& operator+=(const HistogramData& o);

  bool operator==(const HistogramData&) const = default;
};

/// Appends `h` as the JSON object {"edges": [...], "counts": [...],
/// "count": N, "sum": S}, numbers through json::append_number. The one
/// histogram rendering of the metrics and aggregate documents.
void append_histogram(std::string& out, const HistogramData& h);

/// Convenience bucket-edge generators.
std::vector<double> linear_buckets(double start, double width, std::size_t n);
std::vector<double> exponential_buckets(double start, double factor, std::size_t n);

/// Cheap handles into the registry. A handle is a raw pointer to storage the
/// registry owns; the registry keeps registrations (and therefore handle
/// addresses) stable across reset(), so components may cache handles for the
/// process lifetime. Default-constructed handles are inert no-ops.
class Counter {
 public:
  Counter() = default;
  void inc() const {
    if (v_) ++*v_;
  }
  void add(std::uint64_t n) const {
    if (v_) *v_ += n;
  }
  std::uint64_t value() const { return v_ ? *v_ : 0; }

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint64_t* v) : v_(v) {}
  std::uint64_t* v_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (v_) *v_ = v;
  }
  void add(double v) const {
    if (v_) *v_ += v;
  }
  double value() const { return v_ ? *v_ : 0.0; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(double* v) : v_(v) {}
  double* v_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void observe(double v) const {
    if (!d_) return;
    const auto it = std::lower_bound(d_->edges.begin(), d_->edges.end(), v);
    ++d_->counts[static_cast<std::size_t>(it - d_->edges.begin())];
    ++d_->count;
    d_->sum += v;
  }
  const HistogramData* data() const { return d_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(HistogramData* d) : d_(d) {}
  HistogramData* d_ = nullptr;
};

/// Point-in-time copy of every registered metric, ready for export or
/// comparison. Maps are name-sorted, so iteration (and the JSON emitted from
/// it) is deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Metrics registry. Names follow `component.metric`
/// (e.g. "tcp.retransmits_fast"); registering the same name twice returns a
/// handle to the same storage, which is how per-connection instances
/// aggregate into one registry-wide counter.
///
/// A registry is single-threaded state: one simulation (one trial) writes
/// it. Components reach the registry of the trial they belong to through
/// `obs::metrics()` (see obs/context.hpp); concurrent trials each install
/// their own `obs::Context`, so registries are never shared across threads.
///
/// reset() zeroes every value but keeps registrations, so a harness can make
/// back-to-back trials start from identical state without invalidating the
/// handles components cached at construction.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter counter(const std::string& name);
  Gauge gauge(const std::string& name);
  /// Re-registering an existing histogram ignores `edges` and returns the
  /// original storage.
  Histogram histogram(const std::string& name, std::vector<double> edges);

  /// Lookup without registering; zero when absent.
  std::uint64_t counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;

  void reset();
  MetricsSnapshot snapshot() const;

 private:
  std::map<std::string, std::unique_ptr<std::uint64_t>> counters_;
  std::map<std::string, std::unique_ptr<double>> gauges_;
  std::map<std::string, std::unique_ptr<HistogramData>> histograms_;
};

/// Renders a snapshot as a stable, human-diffable JSON document.
std::string metrics_json(const MetricsSnapshot& snap);

}  // namespace h2sim::obs
