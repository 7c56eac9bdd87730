#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "experiment/harness.hpp"
#include "obs/aggregate.hpp"
#include "obs/context.hpp"

namespace h2sim::experiment {

/// Streaming consumer for trial outcomes. run_trials() invokes consume() on
/// the worker thread right after trial `index` finishes, while the trial's
/// private obs::Context is still alive — implementations must therefore be
/// thread-safe. With RunOptions::collect_results = false the runner stops
/// materializing the TrialResult vector entirely, so a sink is the only
/// consumer and memory stays bounded whatever the trial count.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void consume(std::size_t index, const TrialConfig& cfg,
                       const TrialResult& result, const obs::Context& ctx) = 0;
};

/// The fixed scalar schema one trial contributes to campaign aggregates —
/// everything needed to rebuild per-cell statistics without the TrialResult.
/// The field list is ordered and closed: NDJSON spill, the manifest digest,
/// and the aggregate reduction all iterate it identically, which is what
/// makes "same records" imply "same aggregates".
struct TrialRecord {
  static constexpr std::size_t kFieldCount = 13;

  std::uint64_t index = 0;  // global trial index within the campaign grid
  std::uint64_t seed = 0;
  std::string cell;  // config-cell label, e.g. "attack=full,pad=0,dummies=0"
  std::array<double, kFieldCount> values{};

  /// Names for values[i], in schema order.
  static const std::array<const char*, kFieldCount>& field_names();

  bool operator==(const TrialRecord&) const = default;
};

/// Projects a finished trial onto the record schema.
TrialRecord make_trial_record(std::uint64_t index, const TrialConfig& cfg,
                              const std::string& cell, const TrialResult& r);

/// One-line NDJSON rendering through obs::json. Doubles print %.17g, so a
/// re-parsed line is value-identical and a re-serialized record is
/// byte-identical; a non-finite value prints as `null`.
std::string trial_record_ndjson(const TrialRecord& rec);
/// Inverse of trial_record_ndjson; nullopt on malformed or schema-foreign
/// lines (unknown/missing fields).
std::optional<TrialRecord> parse_trial_record(const std::string& line);

/// Applies one record to the per-cell aggregate table. The campaign's
/// canonical reduction applies records in ascending `index` order so the
/// float accumulation order — and therefore the serialized aggregate — is
/// identical however the trials were scheduled, interrupted, or resumed.
void apply_trial_record(obs::AggregateTable& table, const TrialRecord& rec);

/// ResultSink that reduces trials into an AggregateTable in canonical
/// (ascending-index) order, regardless of worker completion order: records
/// arriving out of order wait in a small reorder buffer. Because the runner
/// hands out indices via an atomic counter, the buffer never holds more than
/// ~jobs records — memory stays bounded.
class AggregatingSink : public ResultSink {
 public:
  /// `labeler` maps a trial to its config-cell label; a null labeler puts
  /// every trial in the "" cell. `base_index` offsets the runner's local
  /// indices into a campaign-global index space (resume support).
  using Labeler = std::function<std::string(std::size_t index, const TrialConfig&)>;
  explicit AggregatingSink(Labeler labeler = nullptr,
                           std::uint64_t base_index = 0);

  void consume(std::size_t index, const TrialConfig& cfg,
               const TrialResult& result, const obs::Context& ctx) override;

  /// Snapshot of the table so far (copies under the lock; the table is small
  /// — per-cell accumulators, not per-trial data).
  obs::AggregateTable table() const;
  std::uint64_t applied() const;

 private:
  Labeler labeler_;
  std::uint64_t base_index_;
  mutable std::mutex mu_;
  obs::AggregateTable table_;
  std::map<std::uint64_t, TrialRecord> pending_;
  std::uint64_t next_to_apply_;
  std::uint64_t applied_ = 0;
};

}  // namespace h2sim::experiment
