#include "experiment/scenario.hpp"

#include <utility>

namespace h2sim::experiment {

ScenarioTemplate::ScenarioTemplate(TrialConfig base) : base_(std::move(base)) {
  if (!base_.prebuilt_site) base_.prebuilt_site = prebuild_site(base_);
}

ScenarioTemplate ScenarioTemplate::with_background(int background_clients) const {
  TrialConfig cfg = base_;
  cfg.load.background_clients = background_clients;
  // The ctor keeps an already-populated prebuilt_site, so the derived
  // template shares this one's site instead of rebuilding it.
  return ScenarioTemplate(std::move(cfg));
}

bool same_site_recipe(const TrialConfig& a, const TrialConfig& b) {
  if (!site_is_seed_independent(a) || !site_is_seed_independent(b)) {
    return false;
  }
  return a.site == b.site;
}

std::shared_ptr<const web::Website> prebuild_site(const TrialConfig& cfg) {
  if (!site_is_seed_independent(cfg)) return nullptr;
  return std::make_shared<const web::Website>(
      web::make_isidewith_site(cfg.site));
}

}  // namespace h2sim::experiment
