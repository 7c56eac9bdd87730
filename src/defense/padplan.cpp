#include "defense/padplan.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>

#include "obs/json.hpp"

namespace h2sim::defense {

const PadPlanEntry* PadPlan::find(std::size_t size) const {
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), size,
      [](const PadPlanEntry& e, std::size_t s) { return e.size < s; });
  if (it == entries.end() || it->size != size) return nullptr;
  return &*it;
}

std::size_t PadPlan::fallback_target(std::size_t size) const {
  std::size_t best = 0;
  bool found = false;
  for (const PadPlanEntry& e : entries) {
    for (const PadTarget& t : e.targets) {
      if (t.to >= size && (!found || t.to < best)) {
        best = t.to;
        found = true;
      }
    }
  }
  return found ? best : size;
}

namespace {

void append_double(std::string& out, double v) {
  char buf[40];
  // %.17g: shortest round-trippable double, matching the AggregateTable
  // convention — byte-identical files mean bit-identical values.
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string PadPlan::serialize() const {
  std::string out = "{\"version\":1,\"budget\":";
  append_double(out, budget);
  out += ",\"achieved_overhead\":";
  append_double(out, achieved_overhead);
  out += ",\"min_class\":" + std::to_string(min_class);
  out += ",\"entries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PadPlanEntry& e = entries[i];
    if (i) out += ',';
    out += "{\"size\":" + std::to_string(e.size) + ",\"targets\":[";
    for (std::size_t j = 0; j < e.targets.size(); ++j) {
      if (j) out += ',';
      out += "{\"to\":" + std::to_string(e.targets[j].to) + ",\"p\":";
      append_double(out, e.targets[j].p);
      out += '}';
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::optional<PadPlan> PadPlan::parse(const std::string& json,
                                      std::string* error) {
  const auto fail = [&](const char* why) -> std::optional<PadPlan> {
    if (error) *error = why;
    return std::nullopt;
  };
  const std::optional<obs::json::Value> doc = obs::json::parse(json);
  if (!doc || !doc->is_object()) return fail("not a JSON object");
  const obs::json::Value* version = doc->find("version");
  if (!version || !version->is_number() || version->number != 1.0) {
    return fail("missing or unsupported \"version\"");
  }
  PadPlan plan;
  if (const obs::json::Value* v = doc->find("budget"); v && v->is_number()) {
    plan.budget = v->number;
  }
  if (const obs::json::Value* v = doc->find("achieved_overhead");
      v && v->is_number()) {
    plan.achieved_overhead = v->number;
  }
  if (const obs::json::Value* v = doc->find("min_class")) {
    const auto n = v->as_uint(std::numeric_limits<int>::max());
    if (!n) return fail("\"min_class\" is not a non-negative integer");
    plan.min_class = static_cast<int>(*n);
  }
  const obs::json::Value* entries = doc->find("entries");
  if (!entries || !entries->is_array()) return fail("missing \"entries\"");
  for (const obs::json::Value& ev : entries->array) {
    if (!ev.is_object()) return fail("entry is not an object");
    const obs::json::Value* size = ev.find("size");
    const obs::json::Value* targets = ev.find("targets");
    const auto size_n = size ? size->as_uint() : std::nullopt;
    if (!size_n || !targets || !targets->is_array() || targets->array.empty()) {
      return fail("entry missing \"size\" or \"targets\"");
    }
    PadPlanEntry entry;
    entry.size = *size_n;
    double psum = 0.0;
    for (const obs::json::Value& tv : targets->array) {
      const obs::json::Value* to = tv.is_object() ? tv.find("to") : nullptr;
      const obs::json::Value* p = tv.is_object() ? tv.find("p") : nullptr;
      const auto to_n = to ? to->as_uint() : std::nullopt;
      if (!to_n || !p || !p->is_number()) {
        return fail("target missing \"to\" or \"p\"");
      }
      PadTarget t;
      t.to = *to_n;
      t.p = p->number;
      if (t.to < entry.size) return fail("target below original size");
      if (t.p < 0.0) return fail("negative probability");
      psum += t.p;
      entry.targets.push_back(t);
    }
    if (psum < 1.0 - 1e-9 || psum > 1.0 + 1e-9) {
      return fail("target probabilities do not sum to 1");
    }
    entry.targets.shrink_to_fit();
    plan.entries.push_back(std::move(entry));
  }
  if (!std::is_sorted(plan.entries.begin(), plan.entries.end(),
                      [](const PadPlanEntry& a, const PadPlanEntry& b) {
                        return a.size < b.size;
                      })) {
    return fail("entries not ascending by size");
  }
  for (std::size_t i = 1; i < plan.entries.size(); ++i) {
    if (plan.entries[i].size == plan.entries[i - 1].size) {
      return fail("duplicate entry size");
    }
  }
  return plan;
}

PadPlan optimize_constrained(const std::vector<std::size_t>& sizes,
                             double budget) {
  PadPlan plan;
  plan.budget = budget;
  if (sizes.empty()) return plan;

  // Collapse to (distinct size, object count): a group is a contiguous run
  // of distinct sizes, its anonymity-set cardinality the sum of counts, so
  // equal-sized objects can never straddle a class boundary and the plan
  // stays a function of the original size.
  std::map<std::size_t, std::size_t> counted;
  std::size_t total_bytes = 0;
  for (const std::size_t s : sizes) {
    ++counted[s];
    total_bytes += s;
  }
  std::vector<std::size_t> distinct, count;
  for (const auto& [s, c] : counted) {
    distinct.push_back(s);
    count.push_back(c);
  }
  const std::size_t n = distinct.size();
  const double byte_budget =
      budget > 0.0 ? budget * static_cast<double>(total_bytes) : 0.0;

  // Padding bytes when distinct[j..i] (inclusive) form one class padded to
  // distinct[i]. prefix[i] = sum over the first i distinct sizes of
  // size * count.
  std::vector<std::size_t> objects_prefix(n + 1, 0), bytes_prefix(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    objects_prefix[i + 1] = objects_prefix[i] + count[i];
    bytes_prefix[i + 1] = bytes_prefix[i] + distinct[i] * count[i];
  }
  const auto group_cost = [&](std::size_t j, std::size_t i) -> std::size_t {
    // Pad objects j..i (distinct indices, inclusive) up to distinct[i].
    return distinct[i] * (objects_prefix[i + 1] - objects_prefix[j]) -
           (bytes_prefix[i + 1] - bytes_prefix[j]);
  };
  const std::size_t total_objects = objects_prefix[n];

  constexpr std::size_t kInf = std::numeric_limits<std::size_t>::max();

  // min_cost_for(k): cheapest contiguous partition whose every class holds
  // at least k objects (kInf when none exists). Returns the class boundaries
  // through `cut`: cut[i] = start index of the class ending at distinct i-1.
  std::vector<std::size_t> best(n + 1), cut(n + 1);
  const auto min_cost_for = [&](std::size_t k) -> std::size_t {
    best.assign(n + 1, kInf);
    best[0] = 0;
    for (std::size_t i = 1; i <= n; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (best[j] == kInf) continue;
        if (objects_prefix[i] - objects_prefix[j] < k) continue;
        const std::size_t c = best[j] + group_cost(j, i - 1);
        if (c < best[i]) {
          best[i] = c;
          cut[i] = j;
        }
      }
    }
    return best[n];
  };

  // Largest feasible min-class k under the byte budget. k = 1 is always
  // feasible (the identity partition costs 0), so the loop cannot fail.
  std::size_t chosen_k = 1;
  for (std::size_t k = total_objects; k >= 1; --k) {
    const std::size_t c = min_cost_for(k);
    if (c != kInf && static_cast<double>(c) <= byte_budget) {
      chosen_k = k;
      break;
    }
  }
  const std::size_t spent = min_cost_for(chosen_k);

  // Walk the cuts back into classes, then emit one entry per distinct size.
  std::vector<std::size_t> starts;  // class start indices, reversed
  for (std::size_t i = n; i > 0; i = cut[i]) starts.push_back(cut[i]);
  std::reverse(starts.begin(), starts.end());
  plan.min_class = static_cast<int>(total_objects);
  for (std::size_t g = 0; g < starts.size(); ++g) {
    const std::size_t lo = starts[g];
    const std::size_t hi = (g + 1 < starts.size() ? starts[g + 1] : n) - 1;
    const std::size_t members = objects_prefix[hi + 1] - objects_prefix[lo];
    plan.min_class = std::min(plan.min_class, static_cast<int>(members));
    for (std::size_t i = lo; i <= hi; ++i) {
      PadPlanEntry e;
      e.size = distinct[i];
      e.targets.push_back({distinct[hi], 1.0});
      plan.entries.push_back(std::move(e));
    }
  }
  plan.achieved_overhead = total_bytes
                               ? static_cast<double>(spent) /
                                     static_cast<double>(total_bytes)
                               : 0.0;
  return plan;
}

}  // namespace h2sim::defense
