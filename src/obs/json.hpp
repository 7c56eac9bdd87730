#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

/// The one JSON reader and writer. Every document the simulator and its
/// tools emit (metrics, traces, aggregates, trial records, campaign
/// manifests, pad plans, tool stdout) is built with the writer half below,
/// and every one they read back goes through parse().
namespace h2sim::obs::json {

/// Appends `s` as a JSON string literal (RFC 8259 §7): quoted, with `"`,
/// `\`, newline and tab escaped by name and every other control byte as
/// `\u00XX`. All other bytes, UTF-8 included, pass through verbatim.
void append_string(std::string& out, std::string_view s);
/// append_string into a fresh string, for printf-style emitters.
std::string quoted(std::string_view s);
/// Appends `v` as %.17g, the shortest printf format that round-trips every
/// finite double bit-exactly through strtod (so byte-identical documents
/// mean bit-identical values), or as `null` when `v` is not finite: JSON
/// has no inf/nan literal.
void append_number(std::string& out, double v);

/// Reads the whole file into `out`; false when it cannot be opened or read.
bool read_file(const std::string& path, std::string& out);
/// Writes `body` to `path`, replacing it; false (errno intact) when the open,
/// the write or the close fails.
bool write_file(const std::string& path, std::string_view body);

/// Minimal JSON DOM used to read back the documents the writer produced
/// (manifests, shards, pad plans, metrics) and to validate exports in
/// tests. Not a general purpose library: strict RFC 8259 syntax, numbers as
/// double, `\u` escapes decoded to UTF-8 (a surrogate pair to the code
/// point it names), nesting capped at kMaxDepth.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_number() const { return kind == Kind::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(const std::string& key) const;

  /// The number as an unsigned integer when it is finite, integral and at
  /// most `max`; nullopt otherwise (not a number, negative, fractional, NaN,
  /// or out of range). The one way to read a count or an index from JSON.
  std::optional<std::uint64_t> as_uint(
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
};

/// Deepest array/object nesting parse() accepts. Our deepest document, a pad
/// plan, nests 5; the cap keeps hostile input from exhausting the stack.
inline constexpr int kMaxDepth = 64;

/// Parses a complete JSON document. nullopt on any syntax error, trailing
/// garbage, or nesting deeper than kMaxDepth.
std::optional<Value> parse(const std::string& text);

}  // namespace h2sim::obs::json

namespace h2sim::obs {

struct MetricsSnapshot;

/// Inverse of metrics_json(): rebuilds a snapshot from the document the
/// writer produced. nullopt on syntax errors or a structurally foreign
/// document (missing sections, wrong types). Finite doubles round-trip
/// bit-exactly (%.17g); non-finite values were written as `null` by the
/// writer's guard and read back as 0.0 — by the time a value reaches an
/// export it should already be finite, and 0.0 keeps snapshots comparable
/// (NaN would poison operator==).
std::optional<MetricsSnapshot> metrics_snapshot_from_json(const std::string& text);

}  // namespace h2sim::obs
