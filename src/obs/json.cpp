#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.hpp"

namespace h2sim::obs::json {

void append_string(std::string& out, std::string_view s) {
  out += '"';
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
  out += '"';
}

std::string quoted(std::string_view s) {
  std::string out;
  append_string(out, s);
  return out;
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return false;
  char buf[1 << 16];
  std::size_t n;
  out.clear();
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

bool write_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (!f) return false;
  const bool wrote = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::optional<std::uint64_t> Value::as_uint(std::uint64_t max) const {
  // 0x1p64 is exact; anything below it that is integral converts without UB.
  if (kind != Kind::kNumber || !(number >= 0.0) || !(number < 0x1p64) ||
      number != std::floor(number)) {
    return std::nullopt;
  }
  const auto u = static_cast<std::uint64_t>(number);
  if (u > max) return std::nullopt;
  return u;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  std::optional<Value> run() {
    skip_ws();
    Value v;
    if (!parse_value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  // RFC 8259 §2: space, tab, LF and CR only (not VT or FF).
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  /// `depth` counts the containers enclosing `out`.
  bool parse_value(Value& out, int depth) {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return depth < kMaxDepth && parse_object(out, depth + 1);
      case '[': return depth < kMaxDepth && parse_array(out, depth + 1);
      case '"': {
        out.kind = Value::Kind::kString;
        return parse_string(out.string);
      }
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::kNull;
        return literal("null");
      default: return parse_number(out);
    }
  }

  bool parse_object(Value& out, int depth) {
    out.kind = Value::Kind::kObject;
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      Value v;
      if (!parse_value(v, depth)) return false;
      out.object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool parse_array(Value& out, int depth) {
    out.kind = Value::Kind::kArray;
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    for (;;) {
      skip_ws();
      Value v;
      if (!parse_value(v, depth)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool parse_string(std::string& out) {
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out += c;
      } else if (pos_ >= s_.size()) {
        return false;
      } else if (const auto k = kEscapes.find(s_[pos_]); k != kEscapes.npos) {
        out += kDecoded[k];
        ++pos_;
      } else if (s_[pos_] != 'u' || !unicode_escape(out)) {
        return false;
      }
    }
    return false;  // unterminated
  }

  /// Decodes the `\uXXXX` whose `u` is at pos_ to UTF-8; a surrogate pair
  /// decodes to the code point it names, a lone surrogate as itself.
  bool unicode_escape(std::string& out) {
    std::uint32_t cp = 0, low = 0;
    if (!hex4(pos_ + 1, cp)) return false;
    pos_ += 5;
    if (cp >= 0xd800 && cp < 0xdc00 && s_.compare(pos_, 2, "\\u") == 0 &&
        hex4(pos_ + 2, low) && low >= 0xdc00 && low < 0xe000) {
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
      pos_ += 6;
    }
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    constexpr std::uint8_t kLead[] = {0x00, 0xc0, 0xe0, 0xf0};
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int i = tail - 1; i >= 0; --i) {
      out += static_cast<char>(0x80 | ((cp >> (6 * i)) & 0x3f));
    }
    return true;
  }

  /// The four hex digits at `at` as a code unit; false when cut short or
  /// not hex.
  bool hex4(std::size_t at, std::uint32_t& unit) const {
    if (at + 4 > s_.size()) return false;
    unit = 0;
    for (std::size_t i = at; i < at + 4; ++i) {
      const auto c = static_cast<unsigned char>(s_[i]);
      if (!std::isxdigit(c)) return false;
      unit = unit * 16 + (std::isdigit(c) ? c - '0' : (c | 0x20) - 'a' + 10);
    }
    return true;
  }

  /// One or more decimal digits.
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    eat('-');
    if (!eat('0') && !digits()) return false;  // no leading zeros
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    out.kind = Value::Kind::kNumber;
    out.number = std::strtod(s_.c_str() + start, nullptr);
    return true;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(const std::string& text) { return Parser(text).run(); }

}  // namespace h2sim::obs::json

namespace h2sim::obs {

namespace {

// null (the writer's non-finite guard) reads back as 0.0; see header.
double number_or_zero(const json::Value& v) {
  return v.is_number() ? v.number : 0.0;
}

}  // namespace

std::optional<MetricsSnapshot> metrics_snapshot_from_json(const std::string& text) {
  const auto doc = json::parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const json::Value* counters = doc->find("counters");
  const json::Value* gauges = doc->find("gauges");
  const json::Value* histograms = doc->find("histograms");
  if (!counters || !counters->is_object() || !gauges || !gauges->is_object() ||
      !histograms || !histograms->is_object()) {
    return std::nullopt;
  }

  MetricsSnapshot snap;
  for (const auto& [name, v] : counters->object) {
    const auto n = v.as_uint();
    if (!n) return std::nullopt;
    snap.counters[name] = *n;
  }
  for (const auto& [name, v] : gauges->object) {
    if (!v.is_number() && v.kind != json::Value::Kind::kNull) return std::nullopt;
    snap.gauges[name] = number_or_zero(v);
  }
  for (const auto& [name, v] : histograms->object) {
    if (!v.is_object()) return std::nullopt;
    const json::Value* edges = v.find("edges");
    const json::Value* counts = v.find("counts");
    const json::Value* count = v.find("count");
    const json::Value* sum = v.find("sum");
    if (!edges || !edges->is_array() || !counts || !counts->is_array() ||
        !count || !sum) {
      return std::nullopt;
    }
    HistogramData h;
    h.edges.reserve(edges->array.size());
    for (const auto& e : edges->array) {
      if (!e.is_number()) return std::nullopt;
      h.edges.push_back(e.number);
    }
    h.counts.reserve(counts->array.size());
    for (const auto& c : counts->array) {
      const auto n = c.as_uint();
      if (!n) return std::nullopt;
      h.counts.push_back(*n);
    }
    if (h.counts.size() != h.edges.size() + 1) return std::nullopt;
    const auto n = count->as_uint();
    if (!n) return std::nullopt;
    h.count = *n;
    h.sum = number_or_zero(*sum);
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

}  // namespace h2sim::obs
