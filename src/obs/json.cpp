#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "obs/metrics.hpp"

namespace h2sim::obs::json {

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
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
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

  bool literal(const char* word) {
    std::size_t n = 0;
    while (word[n]) ++n;
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
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
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ + 1 >= s_.size()) return false;
        const char esc = s_[pos_ + 1];
        switch (esc) {
          case '"': out += '"'; pos_ += 2; break;
          case '\\': out += '\\'; pos_ += 2; break;
          case '/': out += '/'; pos_ += 2; break;
          case 'b': out += '\b'; pos_ += 2; break;
          case 'f': out += '\f'; pos_ += 2; break;
          case 'n': out += '\n'; pos_ += 2; break;
          case 'r': out += '\r'; pos_ += 2; break;
          case 't': out += '\t'; pos_ += 2; break;
          case 'u': {
            if (pos_ + 6 > s_.size()) return false;
            for (std::size_t i = pos_ + 2; i < pos_ + 6; ++i) {
              if (!std::isxdigit(static_cast<unsigned char>(s_[i]))) return false;
            }
            out.append(s_, pos_, 6);  // keep the escape verbatim
            pos_ += 6;
            break;
          }
          default: return false;
        }
      } else {
        out += c;
        ++pos_;
      }
    }
    return false;  // unterminated
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (eat('-')) {
    }
    if (eat('0')) {
      // no leading zeros
    } else {
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        return false;
      }
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (eat('.')) {
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        return false;
      }
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= s_.size() || !std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        return false;
      }
      while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        ++pos_;
      }
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
