#include "experiment/scenario.hpp"

#include <utility>

#include "defense/defenses.hpp"

namespace h2sim::experiment {

ScenarioTemplate::ScenarioTemplate(TrialConfig base) : base_(std::move(base)) {
  if (!base_.prebuilt_site) base_.prebuilt_site = prebuild_site(base_);
}

ScenarioTemplate ScenarioTemplate::with_load(LoadConfig load) const {
  TrialConfig cfg = base_;
  cfg.load = std::move(load);
  // The ctor keeps an already-populated prebuilt_site, so the derived
  // template shares this one's site instead of rebuilding it.
  return ScenarioTemplate(std::move(cfg));
}

ScenarioTemplate ScenarioTemplate::with_background(int background_clients) const {
  LoadConfig load = base_.load;
  load.background_clients = background_clients;
  return with_load(std::move(load));
}

bool same_site_recipe(const TrialConfig& a, const TrialConfig& b) {
  if (a.site_builder || b.site_builder) return false;
  if (a.defense.dummy_count != 0 || b.defense.dummy_count != 0) return false;
  return a.site.html_size == b.site.html_size &&
         a.site.emblem_sizes == b.site.emblem_sizes &&
         a.site.pre_objects == b.site.pre_objects &&
         a.site.filler_objects == b.site.filler_objects &&
         a.site.head_fillers == b.site.head_fillers &&
         a.defense.pad_quantum == b.defense.pad_quantum;
}

std::shared_ptr<const web::Website> prebuild_site(const TrialConfig& cfg) {
  if (cfg.site_builder || cfg.defense.dummy_count != 0) return nullptr;
  web::Website site = web::make_isidewith_site(cfg.site);
  if (cfg.defense.pad_quantum > 1) {
    site = defense::pad_site(site, cfg.defense.pad_quantum);
  }
  return std::make_shared<const web::Website>(std::move(site));
}

}  // namespace h2sim::experiment
