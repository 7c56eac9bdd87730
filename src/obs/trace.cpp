#include "obs/trace.hpp"

#include <cstdio>
#include <utility>

#include "obs/json.hpp"

namespace h2sim::obs {

const char* to_string(Component c) {
  switch (c) {
    case Component::kSim: return "sim";
    case Component::kNet: return "net";
    case Component::kTcp: return "tcp";
    case Component::kTls: return "tls";
    case Component::kH2: return "h2";
    case Component::kWeb: return "web";
    case Component::kAttack: return "attack";
    case Component::kExperiment: return "experiment";
    case Component::kCapture: return "capture";
    case Component::kCount: break;
  }
  return "?";
}

namespace {

/// Microseconds with nanosecond fraction, the unit Chrome trace expects.
void append_micros(std::string& out, std::int64_t ns) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%lld.%03lld",
                static_cast<long long>(ns / 1000),
                static_cast<long long>(ns % 1000));
  out += buf;
}

}  // namespace

void TraceArgs::key(std::string_view k) {
  if (!s_.empty()) s_ += ", ";
  json::append_string(s_, k);
  s_ += ": ";
}

TraceArgs& TraceArgs::add(std::string_view k, std::int64_t v) {
  key(k);
  s_ += std::to_string(v);
  return *this;
}

TraceArgs& TraceArgs::add(std::string_view k, std::uint64_t v) {
  key(k);
  s_ += std::to_string(v);
  return *this;
}

TraceArgs& TraceArgs::add(std::string_view k, double v) {
  key(k);
  json::append_number(s_, v);
  return *this;
}

TraceArgs& TraceArgs::add(std::string_view k, std::string_view v) {
  key(k);
  json::append_string(s_, v);
  return *this;
}

void Tracer::instant(Component c, std::string name, sim::TimePoint t,
                     std::uint32_t pid, std::uint64_t tid, std::string args) {
  if (!enabled(c)) return;
  events_.push_back({c, 'i', std::move(name), t.count_nanos(), 0, pid, tid,
                     std::move(args)});
}

void Tracer::complete(Component c, std::string name, sim::TimePoint start,
                      sim::TimePoint end, std::uint32_t pid, std::uint64_t tid,
                      std::string args) {
  if (!enabled(c)) return;
  events_.push_back({c, 'X', std::move(name), start.count_nanos(),
                     (end - start).count_nanos(), pid, tid, std::move(args)});
}

void Tracer::counter(Component c, std::string name, sim::TimePoint t,
                     std::uint32_t pid, std::uint64_t tid, double value) {
  if (!enabled(c)) return;
  std::string args = "\"value\": ";
  json::append_number(args, value);
  events_.push_back({c, 'C', std::move(name), t.count_nanos(), 0, pid, tid,
                     std::move(args)});
}

namespace {

void append_event(std::string& out, const TraceEvent& e) {
  out += "{\"name\": ";
  json::append_string(out, e.name);
  out += ", \"cat\": ";
  json::append_string(out, to_string(e.comp));
  out += ", \"ph\": \"";
  out += e.phase;
  out += "\", \"ts\": ";
  append_micros(out, e.ts_ns);
  if (e.phase == 'X') {
    out += ", \"dur\": ";
    append_micros(out, e.dur_ns);
  }
  out += ", \"pid\": " + std::to_string(e.pid);
  out += ", \"tid\": " + std::to_string(e.tid);
  if (e.phase == 'i') out += ", \"s\": \"t\"";  // thread-scoped instant
  if (!e.args.empty()) out += ", \"args\": {" + e.args + "}";
  out += "}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const std::pair<std::uint32_t, const char*> tracks[] = {
      {track::kClient, "client"}, {track::kServer, "server"},
      {track::kNetwork, "network"}, {track::kAdversary, "adversary"}};
  for (const auto& [pid, name] : tracks) {
    if (pid != track::kClient) out += ",\n";
    out += "  {\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0.000, \"pid\": " +
           std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": ";
    json::append_string(out, name);
    out += "}}";
  }
  for (const TraceEvent& e : events) {
    out += ",\n  ";
    append_event(out, e);
  }
  out += "\n]}\n";
  return out;
}

std::string ndjson(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) {
    append_event(out, e);
    out += '\n';
  }
  return out;
}

}  // namespace h2sim::obs
