#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace h2sim::obs {

/// Online (Welford) accumulator for one scalar series: count, mean, variance,
/// min, max in O(1) memory, no sample retention. `add()` is the canonical
/// streaming update; `merge()` combines two accumulators with the standard
/// parallel-variance formula (Chan et al.), which is exact in infinite
/// precision but — like any float reduction — sensitive to operand order.
/// Code that promises *bit-identical* aggregates (the campaign pipeline)
/// therefore always reduces by `add()` in ascending trial-index order and
/// reserves `merge()` for order-insensitive consumers (live telemetry,
/// cross-shard summaries).
struct StatAccumulator {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;  // sum of squared deviations from the running mean
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double x) {
    ++count;
    const double delta = x - mean;
    mean += delta / static_cast<double>(count);
    m2 += delta * (x - mean);
    if (x < min) min = x;
    if (x > max) max = x;
  }

  void merge(const StatAccumulator& o);

  /// Sample variance (n - 1 denominator); 0 for fewer than two samples.
  double variance() const {
    return count > 1 ? m2 / static_cast<double>(count - 1) : 0.0;
  }
  double stddev() const;
  /// Half-width of the normal-approximation 95% confidence interval for the
  /// mean: 1.96 * stddev / sqrt(count). 0 for fewer than two samples.
  double ci95_halfwidth() const;

  bool operator==(const StatAccumulator&) const = default;
};

/// Aggregates for one config cell of a sweep grid: a StatAccumulator per
/// named scalar field plus optional fixed-edge histograms. Memory is bounded
/// by the field/bucket count, never by the trial count.
struct CellAggregate {
  std::uint64_t trials = 0;
  std::map<std::string, StatAccumulator> stats;
  std::map<std::string, HistogramData> histograms;

  void add(const std::string& field, double value) { stats[field].add(value); }
  void observe(const std::string& histogram, double value);
  void merge(const CellAggregate& o);

  bool operator==(const CellAggregate&) const = default;
};

/// Per-cell aggregate table keyed by config-cell label ("attack=full,pad=0").
/// The NDJSON rendering is deterministic: cells sort by label, fields by
/// name, and doubles print through json::append_number (%.17g) so every
/// finite value round-trips bit-exactly through parse().
class AggregateTable {
 public:
  CellAggregate& cell(const std::string& label) { return cells_[label]; }
  const CellAggregate* find(const std::string& label) const;
  const std::map<std::string, CellAggregate>& cells() const { return cells_; }
  std::size_t size() const { return cells_.size(); }
  std::uint64_t total_trials() const;

  void merge(const AggregateTable& o);

  /// One JSON object per cell, one line each, sorted by label. Each stat
  /// carries the raw Welford state (count/mean/m2/min/max) plus the derived
  /// stddev and ci95 for human consumption.
  std::string ndjson() const;

  bool operator==(const AggregateTable&) const = default;

 private:
  std::map<std::string, CellAggregate> cells_;
};

}  // namespace h2sim::obs
