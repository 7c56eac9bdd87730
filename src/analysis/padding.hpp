#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/predictor.hpp"
#include "defense/policy.hpp"
#include "web/website.hpp"

namespace h2sim::analysis {

// Size estimation under padding — the defender's metric, after Morla
// ("Effect of Pipelining and Multiplexing in Estimating HTTP/2.0 Web
// Object Sizes"): how far off is the attacker's recovered plaintext size
// once a padding scheme stands between the object and the wire? The
// attacker knows the deployed scheme (Kerckhoffs) and inverts it with
// defense::PaddingSpec::estimate.

/// The adversary's pre-compiled size databases for the isidewith site
/// structure (8 emblems and the HTML), built from the public site. Under
/// padding the adversary compiles one entry per wire size an object can be
/// served at (PaddingSpec::candidates).
struct SizeDatabases {
  SizeIdentityDb emblems;  // "party0" .. "party7"
  SizeIdentityDb html;     // "html"
  /// Each label's plaintext size on the site: the recovered-size truth.
  std::vector<std::pair<std::string, std::size_t>> originals;
};

/// Requires `site` to have 8 emblem paths and its HTML path.
SizeDatabases build_size_databases(const web::Website& site,
                                   const defense::PaddingSpec& spec,
                                   double tolerance);

/// One scored recovery: the attacker's estimate against the ground truth.
struct SizeErrorSample {
  std::string label;        // object identity (ground truth)
  std::size_t truth = 0;    // original plaintext size
  std::size_t wire = 0;     // bytes actually emitted for it (padded)
  std::size_t estimate = 0; // attacker's recovered size
  double rel_error = 0.0;   // |estimate - truth| / truth
};

/// Distribution summary of the recovered-size errors (Morla's Table-style
/// quantiles). Quantiles use the nearest-rank method so results are exact
/// and machine-independent.
struct SizeErrorStats {
  std::size_t count = 0;   // scored objects
  std::size_t misses = 0;  // objects with no matching detection at all
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double max = 0.0;
};

SizeErrorStats summarize_errors(std::vector<double> rel_errors,
                                std::size_t misses = 0);

/// Ground truth for one transmitted object of interest.
struct PaddedTruth {
  std::string label;
  std::size_t original = 0;  // plaintext size of the undefended object
  std::size_t wire = 0;      // padded bytes the server actually emitted
};

/// Matches boundary detections against the per-object ground truth (by
/// wire size, the only quantity both sides share), inverts each matched
/// detection with `spec.estimate`, and scores the recovery error against the
/// original size. Objects with no detection within `match_tolerance`
/// (relative, on the wire size) count as misses. Each detection explains at
/// most one object (greedy best-match, deterministic).
std::vector<SizeErrorSample> score_recovered_sizes(
    const std::vector<DetectedObject>& detections,
    const std::vector<PaddedTruth>& truths, const defense::PaddingSpec& spec,
    std::size_t* misses_out = nullptr, double match_tolerance = 0.25);

/// Defense-suspicion heuristics for the offline analyzer: evidence that a
/// size-channel defense stands between the site profile and the capture.
struct DefenseSuspicion {
  bool suspected = false;
  /// Label pairs in the size database within identification tolerance of
  /// each other — padded size classes colliding is the whole point of the
  /// defense, and an undefended profile has none.
  int db_collisions = 0;
  /// Greatest common divisor of the detected object sizes when it is large
  /// enough (>= 256) to be a padding quantum rather than chance; 0 when no
  /// common quantum stands out.
  std::size_t inferred_quantum = 0;
  std::string reason;  // human-readable summary ("" when unsuspected)
};

DefenseSuspicion suspect_defense(const std::vector<DetectedObject>& detections,
                                 const SizeIdentityDb& db);

}  // namespace h2sim::analysis
