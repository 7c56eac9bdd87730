#include "experiment/sink.hpp"

#include "obs/json.hpp"

namespace h2sim::experiment {

const std::array<const char*, TrialRecord::kFieldCount>&
TrialRecord::field_names() {
  static const std::array<const char*, kFieldCount> names = {
      "page_complete",      "connection_broken", "success_objects",
      "success_html",       "page_load_seconds", "tcp_retransmits",
      "browser_reissues",   "reset_sweeps",      "adversary_drops",
      "records_observed",   "gets_counted",      "sim_events_executed",
      "packets_forwarded",
  };
  return names;
}

TrialRecord make_trial_record(std::uint64_t index, const TrialConfig& cfg,
                              const std::string& cell, const TrialResult& r) {
  TrialRecord rec;
  rec.index = index;
  rec.seed = cfg.seed;
  rec.cell = cell;
  int successes = 0;
  for (const bool s : r.success) successes += s ? 1 : 0;
  rec.values = {
      r.page_complete ? 1.0 : 0.0,
      r.connection_broken ? 1.0 : 0.0,
      static_cast<double>(successes),
      r.success[0] ? 1.0 : 0.0,
      r.page_load_seconds,
      static_cast<double>(r.tcp_retransmits),
      static_cast<double>(r.browser_reissues),
      static_cast<double>(r.reset_sweeps),
      static_cast<double>(r.adversary_drops),
      static_cast<double>(r.records_observed),
      static_cast<double>(r.gets_counted),
      static_cast<double>(r.sim_events_executed),
      static_cast<double>(r.packets_forwarded),
  };
  return rec;
}

std::string trial_record_ndjson(const TrialRecord& rec) {
  std::string out = "{\"index\": " + std::to_string(rec.index);
  out += ", \"seed\": " + std::to_string(rec.seed);
  out += ", \"cell\": \"";
  for (const char c : rec.cell) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += "\", \"v\": {";
  const auto& names = TrialRecord::field_names();
  for (std::size_t i = 0; i < TrialRecord::kFieldCount; ++i) {
    if (i) out += ", ";
    out += '"';
    out += names[i];
    out += "\": ";
    obs::append_exact_double(out, rec.values[i]);
  }
  out += "}}";
  return out;
}

std::optional<TrialRecord> parse_trial_record(const std::string& line) {
  const auto doc = obs::json::parse(line);
  if (!doc || !doc->is_object()) return std::nullopt;
  const obs::json::Value* index = doc->find("index");
  const obs::json::Value* seed = doc->find("seed");
  const obs::json::Value* cell = doc->find("cell");
  const obs::json::Value* v = doc->find("v");
  const auto index_n = index ? index->as_uint() : std::nullopt;
  const auto seed_n = seed ? seed->as_uint() : std::nullopt;
  if (!index_n || !seed_n || !cell || !cell->is_string() || !v ||
      !v->is_object()) {
    return std::nullopt;
  }
  TrialRecord rec;
  rec.index = *index_n;
  rec.seed = *seed_n;
  rec.cell = cell->string;
  const auto& names = TrialRecord::field_names();
  if (v->object.size() != TrialRecord::kFieldCount) return std::nullopt;
  for (std::size_t i = 0; i < TrialRecord::kFieldCount; ++i) {
    const obs::json::Value* field = v->find(names[i]);
    if (!field || !field->is_number()) return std::nullopt;
    rec.values[i] = field->number;
  }
  return rec;
}

void apply_trial_record(obs::AggregateTable& table, const TrialRecord& rec) {
  obs::CellAggregate& cell = table.cell(rec.cell);
  ++cell.trials;
  const auto& names = TrialRecord::field_names();
  for (std::size_t i = 0; i < TrialRecord::kFieldCount; ++i) {
    cell.stats[names[i]].add(rec.values[i]);
  }
}

AggregatingSink::AggregatingSink(Labeler labeler, std::uint64_t base_index)
    : labeler_(std::move(labeler)),
      base_index_(base_index),
      next_to_apply_(base_index) {}

void AggregatingSink::consume(std::size_t index, const TrialConfig& cfg,
                              const TrialResult& result,
                              const obs::Context& /*ctx*/) {
  const std::string cell = labeler_ ? labeler_(index, cfg) : std::string();
  TrialRecord rec =
      make_trial_record(base_index_ + index, cfg, cell, result);
  std::lock_guard<std::mutex> lock(mu_);
  pending_.emplace(rec.index, std::move(rec));
  // Drain the reorder buffer: apply (and spill) strictly in ascending global
  // index order so the reduction is canonical whatever the completion order.
  for (auto it = pending_.find(next_to_apply_); it != pending_.end();
       it = pending_.find(next_to_apply_)) {
    apply_trial_record(table_, it->second);
    ++applied_;
    if (on_record) on_record(it->second);
    pending_.erase(it);
    ++next_to_apply_;
  }
}

obs::AggregateTable AggregatingSink::table() const {
  std::lock_guard<std::mutex> lock(mu_);
  return table_;
}

std::uint64_t AggregatingSink::applied() const {
  std::lock_guard<std::mutex> lock(mu_);
  return applied_;
}

}  // namespace h2sim::experiment
