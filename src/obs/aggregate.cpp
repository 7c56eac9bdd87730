#include "obs/aggregate.hpp"

#include <cmath>

#include "obs/json.hpp"

namespace h2sim::obs {

void StatAccumulator::merge(const StatAccumulator& o) {
  if (o.count == 0) return;
  if (count == 0) {
    *this = o;
    return;
  }
  const double n_a = static_cast<double>(count);
  const double n_b = static_cast<double>(o.count);
  const double n = n_a + n_b;
  const double delta = o.mean - mean;
  mean += delta * (n_b / n);
  m2 += o.m2 + delta * delta * (n_a * n_b / n);
  count += o.count;
  if (o.min < min) min = o.min;
  if (o.max > max) max = o.max;
}

double StatAccumulator::stddev() const { return std::sqrt(variance()); }

double StatAccumulator::ci95_halfwidth() const {
  if (count < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count));
}

void CellAggregate::observe(const std::string& histogram, double value) {
  HistogramData& h = histograms[histogram];
  const auto it = std::lower_bound(h.edges.begin(), h.edges.end(), value);
  const std::size_t bucket = static_cast<std::size_t>(it - h.edges.begin());
  if (h.counts.size() != h.edges.size() + 1) {
    h.counts.assign(h.edges.size() + 1, 0);
  }
  ++h.counts[bucket];
  ++h.count;
  h.sum += value;
}

void CellAggregate::merge(const CellAggregate& o) {
  trials += o.trials;
  for (const auto& [field, acc] : o.stats) stats[field].merge(acc);
  // A histogram whose edges differ (schema drift between producers) is not
  // merged: HistogramData::merge leaves this side untouched.
  for (const auto& [name, h] : o.histograms) histograms[name].merge(h);
}

const CellAggregate* AggregateTable::find(const std::string& label) const {
  const auto it = cells_.find(label);
  return it == cells_.end() ? nullptr : &it->second;
}

std::uint64_t AggregateTable::total_trials() const {
  std::uint64_t n = 0;
  for (const auto& [label, cell] : cells_) n += cell.trials;
  return n;
}

void AggregateTable::merge(const AggregateTable& o) {
  for (const auto& [label, cell] : o.cells_) cells_[label].merge(cell);
}

namespace {

void append_stat(std::string& out, const StatAccumulator& a) {
  out += "{\"count\": " + std::to_string(a.count) + ", \"mean\": ";
  json::append_number(out, a.mean);
  out += ", \"m2\": ";
  json::append_number(out, a.m2);
  out += ", \"min\": ";
  json::append_number(out, a.count ? a.min : 0.0);
  out += ", \"max\": ";
  json::append_number(out, a.count ? a.max : 0.0);
  out += ", \"stddev\": ";
  json::append_number(out, a.stddev());
  out += ", \"ci95\": ";
  json::append_number(out, a.ci95_halfwidth());
  out += "}";
}

}  // namespace

std::string AggregateTable::ndjson() const {
  std::string out;
  for (const auto& [label, cell] : cells_) {
    out += "{\"cell\": ";
    json::append_string(out, label);
    out += ", \"trials\": " + std::to_string(cell.trials);
    out += ", \"stats\": {";
    bool first = true;
    for (const auto& [field, acc] : cell.stats) {
      if (!first) out += ", ";
      first = false;
      json::append_string(out, field);
      out += ": ";
      append_stat(out, acc);
    }
    out += "}";
    if (!cell.histograms.empty()) {
      out += ", \"histograms\": {";
      first = true;
      for (const auto& [name, h] : cell.histograms) {
        if (!first) out += ", ";
        first = false;
        json::append_string(out, name);
        out += ": ";
        append_histogram(out, h);
      }
      out += "}";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace h2sim::obs
