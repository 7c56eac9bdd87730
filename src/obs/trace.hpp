#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace h2sim::obs {

/// Instrumented subsystems. Each gets one bit in the tracer's enable mask so
/// examples can switch layers on independently (e.g. only tcp + attack).
enum class Component : std::uint32_t {
  kSim = 0,
  kNet,
  kTcp,
  kTls,
  kH2,
  kWeb,
  kAttack,
  kExperiment,
  kCapture,
  kCount,
};

const char* to_string(Component c);

constexpr std::uint32_t component_bit(Component c) {
  return 1u << static_cast<std::uint32_t>(c);
}
constexpr std::uint32_t kAllComponents =
    (1u << static_cast<std::uint32_t>(Component::kCount)) - 1;

/// Trace "process" ids: the timeline groups tracks under the simulated
/// entity they belong to, matching the paper's vantage points.
namespace track {
constexpr std::uint32_t kClient = 1;
constexpr std::uint32_t kServer = 2;
constexpr std::uint32_t kNetwork = 3;
constexpr std::uint32_t kAdversary = 4;
}  // namespace track

/// One structured event on the simulated timeline. `phase` uses the Chrome
/// trace-event vocabulary: 'i' instant, 'X' complete span (with `dur_ns`),
/// 'C' counter sample.
struct TraceEvent {
  Component comp = Component::kSim;
  char phase = 'i';
  std::string name;
  std::int64_t ts_ns = 0;
  std::int64_t dur_ns = 0;      // 'X' only
  std::uint32_t pid = 0;        // track:: grouping
  std::uint64_t tid = 0;        // stream id / connection port / 0
  std::string args;             // preformatted JSON object *body*, may be empty
};

/// Incremental builder for the `args` payload: produces the body of a JSON
/// object ("\"k\": v, ...") with proper escaping. Only ever constructed on
/// call sites that already checked `Tracer::enabled`, so disabled tracing
/// pays nothing for argument formatting.
class TraceArgs {
 public:
  TraceArgs& add(std::string_view key, std::int64_t v);
  TraceArgs& add(std::string_view key, std::uint64_t v);
  TraceArgs& add(std::string_view key, std::uint32_t v) {
    return add(key, static_cast<std::uint64_t>(v));
  }
  TraceArgs& add(std::string_view key, int v) {
    return add(key, static_cast<std::int64_t>(v));
  }
  TraceArgs& add(std::string_view key, double v);
  TraceArgs& add(std::string_view key, std::string_view v);
  std::string take() { return std::move(s_); }

 private:
  void key(std::string_view k);
  std::string s_;
};

/// Event/span tracer driven by simulated time. Disabled (empty mask) by
/// default: the fast path of every record call is a single mask test, so
/// per-packet instrumentation in tcp/net costs one predictable branch when
/// off. Events accumulate in memory (a trial is bounded) and are exported as
/// NDJSON or Chrome trace-event JSON.
///
/// Like MetricsRegistry, a Tracer is single-threaded state owned by one
/// trial's `obs::Context`; components reach it through `obs::tracer()`.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled(Component c) const { return (mask_ & component_bit(c)) != 0; }
  std::uint32_t mask() const { return mask_; }
  void set_mask(std::uint32_t mask) { mask_ = mask; }
  void enable(Component c) { mask_ |= component_bit(c); }
  void disable(Component c) { mask_ &= ~component_bit(c); }
  void enable_all() { mask_ = kAllComponents; }
  void disable_all() { mask_ = 0; }

  /// All record calls are no-ops for disabled components, so callers only
  /// need an explicit enabled() check when argument formatting is costly.
  void instant(Component c, std::string name, sim::TimePoint t,
               std::uint32_t pid, std::uint64_t tid, std::string args = {});
  void complete(Component c, std::string name, sim::TimePoint start,
                sim::TimePoint end, std::uint32_t pid, std::uint64_t tid,
                std::string args = {});
  void counter(Component c, std::string name, sim::TimePoint t,
               std::uint32_t pid, std::uint64_t tid, double value);

  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  std::uint32_t mask_ = 0;
  std::vector<TraceEvent> events_;
};

/// Chrome trace-event JSON (the "JSON Array Format" object wrapper), loadable
/// in Perfetto / chrome://tracing. Timestamps are microseconds of simulated
/// time. Process-name metadata rows label the client/server/network/adversary
/// tracks.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);
/// One JSON object per line; mechanical to consume from pandas/jq.
std::string ndjson(const std::vector<TraceEvent>& events);

}  // namespace h2sim::obs
