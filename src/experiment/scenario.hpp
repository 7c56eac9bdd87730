#pragma once

#include <cstdint>
#include <memory>

#include "experiment/harness.hpp"

namespace h2sim::experiment {

/// Sweep-level scenario template: the seed-independent parts of a
/// TrialConfig — the website (objects and body pattern built), the
/// topology shape, the TLS/h2 connection parameters, and the attack plan —
/// prepared once and shared read-only by every trial of a sweep.
///
/// Site prebuilding is only sound when the site really is the same for every
/// seed (site_is_seed_independent); otherwise the template still works and
/// each trial just builds its own site as before. Wire padding is applied by
/// the server per response and never touches the site.
///
/// A trial's behaviour is byte-identical whether its config came from a
/// template or was built standalone — instantiate() only fills
/// TrialConfig::prebuilt_site, which run_trial() treats as a cache of the
/// site it would otherwise construct.
class ScenarioTemplate {
 public:
  explicit ScenarioTemplate(TrialConfig base);

  /// The config for one trial: the shared base with `seed` set.
  TrialConfig instantiate(std::uint64_t seed) const {
    TrialConfig cfg = base_;
    cfg.seed = seed;
    return cfg;
  }

  const TrialConfig& base() const { return base_; }

  /// True when the template holds a prebuilt site (no per-seed site
  /// randomness in the base config).
  bool site_shared() const { return base_.prebuilt_site != nullptr; }

  /// Derives a template identical to this one except for
  /// `background_clients` extra client stacks under this template's
  /// workload mix. The prebuilt site is carried over (background workloads
  /// request objects from the same site; the site itself is
  /// load-independent), so a client-count sweep shares a single site
  /// across all its cells.
  ScenarioTemplate with_background(int background_clients) const;

 private:
  TrialConfig base_;
};

/// The site-sharing rule: true when the site a trial builds does not depend
/// on its seed. A custom site_builder may close over anything, and dummy
/// injection draws from a per-seed RNG, so either makes the site per-seed.
inline bool site_is_seed_independent(const TrialConfig& cfg) {
  return !cfg.site_builder && cfg.defense.dummy_count == 0;
}

/// True when `a` and `b` would build byte-identical websites from scratch:
/// both sites are seed-independent and their isidewith parameters match.
/// Such configs can share one prebuilt site.
bool same_site_recipe(const TrialConfig& a, const TrialConfig& b);

/// Builds the site a config would construct at trial time, or nullptr when
/// the site is per-seed and cannot be shared.
std::shared_ptr<const web::Website> prebuild_site(const TrialConfig& cfg);

}  // namespace h2sim::experiment
