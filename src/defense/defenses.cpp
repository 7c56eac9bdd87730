#include "defense/defenses.hpp"

#include <string>
#include <vector>

namespace h2sim::defense {

namespace {
constexpr std::size_t kDummyMinSize = 4000;
constexpr std::size_t kDummyMaxSize = 18000;
constexpr double kDummyGapMs = 6.0;
}  // namespace

void inject_dummies(web::Website& site, sim::Rng& rng, int count) {
  // Dummy objects go live on the server...
  std::vector<std::string> paths;
  for (int i = 0; i < count; ++i) {
    web::WebObject o;
    o.path = "/pad/cover" + std::to_string(i) + ".bin";
    o.content_type = "application/octet-stream";
    o.size = kDummyMinSize + rng.uniform(kDummyMaxSize - kDummyMinSize + 1);
    o.label = "dummy" + std::to_string(i);
    site.add_object(o);
    paths.push_back(o.path);
  }
  // ...and their requests interleave with the post-HTML phase, where the
  // objects of interest live.
  std::vector<web::RequestStep> steps;
  std::size_t injected = 0;
  for (const web::RequestStep& s : site.schedule) {
    steps.push_back(s);
    if (s.gate == web::Gate::kHtmlComplete && injected < paths.size() &&
        rng.bernoulli(0.5)) {
      web::RequestStep dummy;
      dummy.path = paths[injected++];
      dummy.gap_from_prev = sim::Duration::millis_f(kDummyGapMs);
      dummy.gate = web::Gate::kHtmlComplete;
      steps.push_back(dummy);
    }
  }
  // Any leftovers trail the load.
  for (; injected < paths.size(); ++injected) {
    web::RequestStep dummy;
    dummy.path = paths[injected];
    dummy.gap_from_prev = sim::Duration::millis_f(kDummyGapMs);
    dummy.gate = web::Gate::kHtmlComplete;
    steps.push_back(dummy);
  }
  site.schedule = std::move(steps);
}

PadPlan plan_for_site(const web::Website& site, double budget) {
  std::vector<std::size_t> sizes;
  sizes.reserve(site.objects().size());
  for (const auto& [path, obj] : site.objects()) sizes.push_back(obj.size);
  return optimize_constrained(sizes, budget);
}

}  // namespace h2sim::defense
