#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace h2sim::defense {

/// One padded-size option for an original size: emit `to` wire bytes with
/// probability `p`. Plans produced by optimize_constrained() are degenerate
/// (one target, p = 1); the format carries full distributions so randomized
/// schemes in the Reed–Reiter style serialize identically.
struct PadTarget {
  std::size_t to = 0;
  double p = 1.0;

  bool operator==(const PadTarget&) const = default;
};

struct PadPlanEntry {
  std::size_t size = 0;  // original (plaintext) object size
  std::vector<PadTarget> targets;  // every `to` >= size; probabilities sum to 1

  bool operator==(const PadPlanEntry&) const = default;
};

/// A constrained-padding scheme after Reed & Reiter ("Optimally Hiding
/// Object Sizes with Constrained Padding"): a per-object-size padding rule
/// for one site, chosen offline to maximize the attacker's uncertainty under
/// a bandwidth-overhead budget. The plan is pure data — deterministic to
/// serialize, cheap to copy, and independent of the web layer — so the
/// wire-level ConstrainedPolicy, the offline h2sim-padplan tool, and the
/// analysis-side size estimators can all share it.
struct PadPlan {
  double budget = 0.0;             // requested expected-overhead ceiling
  double achieved_overhead = 0.0;  // expected overhead on the input corpus
  int min_class = 0;               // smallest anonymity set the plan achieves
  std::vector<PadPlanEntry> entries;  // ascending by original size, unique

  bool operator==(const PadPlan&) const = default;

  /// Exact-size lookup; nullptr when the plan has no entry for `size`.
  const PadPlanEntry* find(std::size_t size) const;

  /// Deterministic rule for sizes the plan has never seen (dummy objects,
  /// site drift): the smallest target of any entry that is >= `size`, or
  /// `size` unchanged when the plan tops out below it. Keeps stray objects
  /// inside the plan's size classes instead of leaking fresh sizes.
  std::size_t fallback_target(std::size_t size) const;

  /// Deterministic single-line JSON (sorted entries, doubles through
  /// obs::json::append_number, so %.17g and `null` if not finite): equal
  /// plans serialize byte-identically on every platform, so plan files can
  /// be committed and sha256-compared like the capture goldens.
  std::string serialize() const;
  static std::optional<PadPlan> parse(const std::string& json,
                                      std::string* error = nullptr);
};

/// Computes the constrained-padding plan for a corpus of object sizes
/// (repetitions = multiple objects sharing a size) under an expected
/// bandwidth-overhead budget (e.g. 0.25 = at most 25% padding bytes).
///
/// Model: deterministic schemes that pad every object up to the maximum of
/// its group, where groups are contiguous runs of the sorted size list —
/// the class Reed & Reiter analyze before generalizing to distributions.
/// Objective: maximize the minimum anonymity-set cardinality (the number of
/// objects sharing a padded wire size — the attacker's residual candidate
/// set); among schemes achieving it, minimize total padding bytes. Solved
/// exactly by binary search over the min-class target k with an O(n^2)
/// partition DP per candidate k.
///
/// Degenerate inputs: an empty corpus yields an empty plan; budget <= 0
/// yields the identity plan (every size padded to itself, min_class = the
/// largest duplicate count).
PadPlan optimize_constrained(const std::vector<std::size_t>& sizes,
                             double budget);

}  // namespace h2sim::defense
