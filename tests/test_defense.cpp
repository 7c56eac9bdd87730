#include <gtest/gtest.h>

#include <map>
#include <string>

#include "analysis/padding.hpp"
#include "defense/defenses.hpp"
#include "experiment/harness.hpp"

namespace h2sim::defense {
namespace {

TEST(Padding, RoundsSizesUp) {
  // Quantum padding on the wire: each response grows to the next multiple
  // of the quantum, and an already aligned object is served as is.
  experiment::TrialConfig cfg;
  cfg.site_builder = [] { return web::make_two_object_site(1000, 8192); };
  cfg.defense.padding = PaddingSpec::quantum_pad(4096);
  std::map<std::string, std::size_t> wire_bytes;
  cfg.wire_log_inspector = [&wire_bytes](const analysis::WireLog& log) {
    for (const auto& ev : log.events()) {
      if (ev.is_data) wire_bytes[ev.object] += ev.data_bytes;
    }
  };
  const auto r = experiment::run_trial(cfg);
  EXPECT_TRUE(r.page_complete) << r.failure_reason;
  EXPECT_EQ(wire_bytes["O1"], 4096u);
  EXPECT_EQ(wire_bytes["O2"], 8192u);
}

TEST(Padding, CollapsesEmblemSizeClasses) {
  // The adversary knows the scheme, so its emblem database holds each
  // emblem's candidate wire sizes; colliding entries are merged classes.
  const web::Website site = web::make_isidewith_site();
  auto collisions = [&site](const PaddingSpec& spec) {
    analysis::SizeIdentityDb db;
    for (const std::string& path : site.emblem_paths) {
      for (std::size_t c : spec.candidates(site.find(path)->size)) {
        db.add(path, c);
      }
    }
    return analysis::suspect_defense({}, db).db_collisions;
  };
  EXPECT_EQ(collisions(PaddingSpec::none()), 0);  // the attack's premise
  // Every emblem pads to 16384: all 28 pairs collide.
  EXPECT_EQ(collisions(PaddingSpec::quantum_pad(16384)), 28);
  // Mild padding keeps the classes apart.
  EXPECT_EQ(collisions(PaddingSpec::quantum_pad(512)), 0);
}

TEST(Dummies, AddObjectsAndSteps) {
  web::Website site = web::make_isidewith_site();
  const std::size_t objects_before = site.objects().size();
  const std::size_t steps_before = site.schedule.size();
  sim::Rng rng(3);
  inject_dummies(site, rng, 6);
  EXPECT_EQ(site.objects().size(), objects_before + 6);
  EXPECT_EQ(site.schedule.size(), steps_before + 6);
  // Dummies must be resolvable so the server can actually serve them.
  for (const auto& step : site.schedule) {
    if (step.path.rfind("EMBLEM_", 0) == 0) continue;
    EXPECT_NE(site.find(step.path), nullptr) << step.path;
  }
}

TEST(DefenseIntegration, HeavyPaddingDefeatsIdentification) {
  experiment::TrialConfig cfg;
  cfg.seed = 99;
  cfg.attack = experiment::full_attack_config();
  cfg.defense.padding = PaddingSpec::quantum_pad(16384);
  const auto r = experiment::run_trial(cfg);
  // Serialization still works (transport-level), but identification dies:
  // every emblem is 16384 bytes.
  int correct = 0;
  for (int j = 1; j <= 8; ++j) {
    if (r.success[static_cast<std::size_t>(j)]) ++correct;
  }
  EXPECT_LE(correct, 2);
}

TEST(DefenseIntegration, DummiesStillDeliverPage) {
  experiment::TrialConfig cfg;
  cfg.seed = 100;
  cfg.attack.enabled = false;
  cfg.defense.dummy_count = 8;
  const auto r = experiment::run_trial(cfg);
  EXPECT_TRUE(r.page_complete) << r.failure_reason;
  EXPECT_EQ(r.gets_counted, 53 + 8);
}

}  // namespace
}  // namespace h2sim::defense
