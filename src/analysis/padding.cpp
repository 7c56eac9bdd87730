#include "analysis/padding.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace h2sim::analysis {

namespace {

// Nearest-rank quantile on a sorted vector (exact, machine-independent).
double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

SizeDatabases build_size_databases(const web::Website& site,
                                   const defense::PaddingSpec& spec,
                                   double tolerance) {
  SizeDatabases dbs;
  dbs.emblems.set_tolerance(tolerance);
  dbs.html.set_tolerance(tolerance);
  auto add = [&](SizeIdentityDb& db, std::string label, const std::string& path) {
    const std::size_t size = site.find(path)->size;
    for (std::size_t c : spec.candidates(size)) db.add(label, c);
    dbs.originals.emplace_back(std::move(label), size);
  };
  for (std::size_t k = 0; k < 8; ++k) {
    add(dbs.emblems, "party" + std::to_string(k), site.emblem_paths[k]);
  }
  add(dbs.html, "html", site.html_path);
  return dbs;
}

SizeErrorStats summarize_errors(std::vector<double> rel_errors,
                                std::size_t misses) {
  SizeErrorStats s;
  s.misses = misses;
  s.count = rel_errors.size();
  if (rel_errors.empty()) return s;
  std::sort(rel_errors.begin(), rel_errors.end());
  s.mean = std::accumulate(rel_errors.begin(), rel_errors.end(), 0.0) /
           static_cast<double>(rel_errors.size());
  s.p50 = quantile_sorted(rel_errors, 0.50);
  s.p90 = quantile_sorted(rel_errors, 0.90);
  s.max = rel_errors.back();
  return s;
}

std::vector<SizeErrorSample> score_recovered_sizes(
    const std::vector<DetectedObject>& detections,
    const std::vector<PaddedTruth>& truths, const defense::PaddingSpec& spec,
    std::size_t* misses_out, double match_tolerance) {
  std::vector<SizeErrorSample> out;
  std::vector<bool> used(detections.size(), false);
  std::size_t misses = 0;
  for (const PaddedTruth& t : truths) {
    // Best unused detection by relative wire-size distance.
    std::size_t best = detections.size();
    double best_rel = match_tolerance;
    for (std::size_t i = 0; i < detections.size(); ++i) {
      if (used[i]) continue;
      const double rel =
          std::abs(static_cast<double>(detections[i].size_estimate) -
                   static_cast<double>(t.wire)) /
          std::max<double>(1.0, static_cast<double>(t.wire));
      if (rel <= best_rel) {
        best_rel = rel;
        best = i;
      }
    }
    if (best == detections.size()) {
      ++misses;
      continue;
    }
    used[best] = true;
    SizeErrorSample s;
    s.label = t.label;
    s.truth = t.original;
    s.wire = t.wire;
    s.estimate = spec.estimate(detections[best].size_estimate);
    s.rel_error = t.original == 0
                      ? 0.0
                      : std::abs(static_cast<double>(s.estimate) -
                                 static_cast<double>(t.original)) /
                            static_cast<double>(t.original);
    out.push_back(std::move(s));
  }
  if (misses_out) *misses_out = misses;
  return out;
}

DefenseSuspicion suspect_defense(const std::vector<DetectedObject>& detections,
                                 const SizeIdentityDb& db) {
  DefenseSuspicion d;

  // Size-class collisions inside the attacker's own database: two labels
  // whose sizes are within identification tolerance means padding has
  // merged their size classes (an undefended profile is collision-free by
  // construction of the attack).
  const auto& entries = db.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = i + 1; j < entries.size(); ++j) {
      const double base =
          std::max<double>(1.0, static_cast<double>(entries[i].size));
      const double rel = std::abs(static_cast<double>(entries[i].size) -
                                  static_cast<double>(entries[j].size)) /
                         base;
      if (rel <= db.tolerance()) ++d.db_collisions;
    }
  }

  // Quantum sniffing: the gcd of detected object sizes. Natural content has
  // gcd 1 (or some tiny alignment); a padding quantum >= 256 sticks out.
  std::size_t g = 0;
  std::size_t considered = 0;
  for (const DetectedObject& o : detections) {
    if (o.size_estimate < 512) continue;  // control chatter / tiny tails
    g = std::gcd(g, o.size_estimate);
    ++considered;
  }
  if (considered >= 2 && g >= 256) d.inferred_quantum = g;

  if (d.db_collisions > 0 || d.inferred_quantum != 0) {
    d.suspected = true;
    std::string why;
    if (d.db_collisions > 0) {
      why += std::to_string(d.db_collisions) + " size-class collision(s)";
    }
    if (d.inferred_quantum != 0) {
      if (!why.empty()) why += ", ";
      why += "common size quantum " + std::to_string(d.inferred_quantum);
    }
    d.reason = why;
  }
  return d;
}

}  // namespace h2sim::analysis
