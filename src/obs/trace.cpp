#include "obs/trace.hpp"

#include <cstdio>

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

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_quoted(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

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
  append_quoted(s_, k);
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
  append_double(s_, v);
  return *this;
}

TraceArgs& TraceArgs::add(std::string_view k, std::string_view v) {
  key(k);
  append_quoted(s_, v);
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

void Tracer::begin(Component c, std::string name, sim::TimePoint t,
                   std::uint32_t pid, std::uint64_t tid, std::string args) {
  if (!enabled(c)) return;
  events_.push_back({c, 'B', std::move(name), t.count_nanos(), 0, pid, tid,
                     std::move(args)});
}

void Tracer::end(Component c, std::string name, sim::TimePoint t,
                 std::uint32_t pid, std::uint64_t tid) {
  if (!enabled(c)) return;
  events_.push_back({c, 'E', std::move(name), t.count_nanos(), 0, pid, tid, {}});
}

void Tracer::counter(Component c, std::string name, sim::TimePoint t,
                     std::uint32_t pid, std::uint64_t tid, double value) {
  if (!enabled(c)) return;
  std::string args;
  append_quoted(args, "value");
  args += ": ";
  append_double(args, value);
  events_.push_back({c, 'C', std::move(name), t.count_nanos(), 0, pid, tid,
                     std::move(args)});
}

namespace {

void append_event(std::string& out, const TraceEvent& e) {
  out += "{\"name\": ";
  append_quoted(out, e.name);
  out += ", \"cat\": ";
  append_quoted(out, to_string(e.comp));
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

void append_process_metadata(std::string& out, std::uint32_t pid,
                             const char* name, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "  {\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0.000, \"pid\": " +
         std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": \"" + name +
         "\"}}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  append_process_metadata(out, track::kClient, "client", first);
  append_process_metadata(out, track::kServer, "server", first);
  append_process_metadata(out, track::kNetwork, "network", first);
  append_process_metadata(out, track::kAdversary, "adversary", first);
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

namespace {

bool write_file(const std::string& body, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

bool write_chrome_trace(const std::vector<TraceEvent>& events,
                        const std::string& path) {
  return write_file(chrome_trace_json(events), path);
}

bool write_ndjson(const std::vector<TraceEvent>& events, const std::string& path) {
  return write_file(ndjson(events), path);
}

}  // namespace h2sim::obs
