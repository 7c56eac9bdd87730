#pragma once

#include "defense/padplan.hpp"
#include "sim/random.hpp"
#include "web/website.hpp"

namespace h2sim::defense {

/// Site-side defenses from the literature the paper's introduction surveys
/// (cover traffic, constrained padding plans), beside the paper's own §VII
/// suggestion (client-side order randomization, which lives in
/// web::BrowserConfig::randomize_embedded_order). Padding itself is applied
/// on the wire by a PaddingSpec (defense/policy.hpp): the live server pads
/// each response, so padding bytes ride genuine DATA frames and show up in
/// captures and TrafficMonitor observations.

/// Injects `count` dummy objects (cover traffic) with sizes drawn uniformly
/// from [4000, 18000] bytes and schedule steps, 6 ms apart, interleaved into
/// the embedded-request phase. The extra transmissions feed the attacker's
/// detector junk that is indistinguishable from real objects.
void inject_dummies(web::Website& site, sim::Rng& rng, int count);

/// Runs the constrained-padding optimizer over the site's object sizes:
/// the input corpus is every object the site serves (the defense pads the
/// whole site, and the budget is accounted over all bytes).
PadPlan plan_for_site(const web::Website& site, double budget);

}  // namespace h2sim::defense
