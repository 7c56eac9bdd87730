#include "obs/metrics.hpp"

#include <algorithm>
#include <cassert>

#include "obs/json.hpp"

namespace h2sim::obs {

bool HistogramData::merge(const HistogramData& o) {
  if (o.count == 0 && o.edges.empty()) return true;
  if (edges.empty() && counts.empty()) {
    *this = o;
    return true;
  }
  if (edges != o.edges || counts.size() != o.counts.size()) return false;
  for (std::size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
  count += o.count;
  sum += o.sum;
  return true;
}

HistogramData& HistogramData::operator+=(const HistogramData& o) {
  const bool ok = merge(o);
  assert(ok && "HistogramData::operator+= requires identical bucket edges");
  (void)ok;
  return *this;
}

std::vector<double> linear_buckets(double start, double width, std::size_t n) {
  std::vector<double> edges;
  edges.reserve(n);
  for (std::size_t i = 0; i < n; ++i) edges.push_back(start + width * static_cast<double>(i));
  return edges;
}

std::vector<double> exponential_buckets(double start, double factor, std::size_t n) {
  std::vector<double> edges;
  edges.reserve(n);
  double e = start;
  for (std::size_t i = 0; i < n; ++i) {
    edges.push_back(e);
    e *= factor;
  }
  return edges;
}

Counter MetricsRegistry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<std::uint64_t>(0);
  return Counter(slot.get());
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<double>(0.0);
  return Gauge(slot.get());
}

Histogram MetricsRegistry::histogram(const std::string& name,
                                     std::vector<double> edges) {
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<HistogramData>();
    slot->edges = std::move(edges);
    slot->counts.assign(slot->edges.size() + 1, 0);
  }
  return Histogram(slot.get());
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : *it->second;
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : *it->second;
}

void MetricsRegistry::reset() {
  for (auto& [name, v] : counters_) *v = 0;
  for (auto& [name, v] : gauges_) *v = 0.0;
  for (auto& [name, h] : histograms_) {
    std::fill(h->counts.begin(), h->counts.end(), 0);
    h->count = 0;
    h->sum = 0.0;
  }
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot s;
  for (const auto& [name, v] : counters_) s.counters[name] = *v;
  for (const auto& [name, v] : gauges_) s.gauges[name] = *v;
  for (const auto& [name, h] : histograms_) s.histograms[name] = *h;
  return s;
}

void append_histogram(std::string& out, const HistogramData& h) {
  out += "{\"edges\": [";
  for (std::size_t i = 0; i < h.edges.size(); ++i) {
    if (i) out += ", ";
    json::append_number(out, h.edges[i]);
  }
  out += "], \"counts\": [";
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    if (i) out += ", ";
    out += std::to_string(h.counts[i]);
  }
  out += "], \"count\": " + std::to_string(h.count) + ", \"sum\": ";
  json::append_number(out, h.sum);
  out += "}";
}

std::string metrics_json(const MetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : snap.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_string(out, name);
    out += ": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : snap.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_string(out, name);
    out += ": ";
    json::append_number(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::append_string(out, name);
    out += ": ";
    append_histogram(out, h);
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

}  // namespace h2sim::obs
