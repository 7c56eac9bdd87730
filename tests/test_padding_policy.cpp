// The wire-level padding defense subsystem: the padding spec and its
// inverse (Morla's recovered-size metric), the constrained-padding
// optimizer and its serialized plan format, and the end-to-end wire-honesty
// guarantees — padding bytes really ride DATA frames, undefended trials
// stay bit-identical, and the adversary's observers see the defended wire.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/padding.hpp"
#include "defense/defenses.hpp"
#include "experiment/digest.hpp"
#include "experiment/harness.hpp"
#include "obs/json.hpp"

namespace h2sim::defense {
namespace {

// --- the padding spec ---

TEST(PaddingSpec, QuantumRoundsUpAndIsDeterministic) {
  const PaddingSpec q = PaddingSpec::quantum_pad(4096);
  sim::Rng rng(1);
  EXPECT_EQ(q.padded_size(1, rng), 4096u);
  EXPECT_EQ(q.padded_size(4096, rng), 4096u);
  EXPECT_EQ(q.padded_size(4097, rng), 8192u);
  EXPECT_TRUE(q.deterministic());
  EXPECT_EQ(q.candidates(5000), std::vector<std::size_t>{8192});
  EXPECT_EQ(q.name(), "quantum4096");
  // quantum <= 1 is the identity.
  EXPECT_EQ(PaddingSpec::quantum_pad(1).padded_size(777, rng), 777u);
  EXPECT_EQ(PaddingSpec::quantum_pad(0).padded_size(777, rng), 777u);
}

TEST(PaddingSpec, RandomStaysInRangeAndActuallyVaries) {
  const PaddingSpec r = PaddingSpec::random_pad(0.25);
  EXPECT_FALSE(r.deterministic());
  sim::Rng rng(42);
  std::set<std::size_t> seen;
  for (int i = 0; i < 64; ++i) {
    const std::size_t w = r.padded_size(10000, rng);
    EXPECT_GE(w, 10000u);
    EXPECT_LE(w, 12500u);
    seen.insert(w);
  }
  EXPECT_GT(seen.size(), 1u) << "randomized padding produced a constant";
  // Best single point estimate: the distribution mean.
  EXPECT_EQ(r.candidates(10000), std::vector<std::size_t>{11250});
  // Zero-size objects stay zero.
  EXPECT_EQ(r.padded_size(0, rng), 0u);
}

TEST(PaddingSpec, ConstrainedFollowsPlanAndFallsBack) {
  PadPlan plan;
  plan.entries = {{1000, {{3000, 1.0}}}, {2500, {{3000, 1.0}}},
                  {5000, {{6000, 1.0}}}};
  const PaddingSpec p =
      PaddingSpec::constrained(std::make_shared<const PadPlan>(plan));
  EXPECT_TRUE(p.deterministic());
  sim::Rng rng(1);
  EXPECT_EQ(p.padded_size(1000, rng), 3000u);
  EXPECT_EQ(p.padded_size(2500, rng), 3000u);
  EXPECT_EQ(p.padded_size(5000, rng), 6000u);
  // Unknown sizes use the deterministic fallback: smallest target >= size.
  EXPECT_EQ(p.padded_size(1500, rng), 3000u);
  EXPECT_EQ(p.padded_size(5500, rng), 6000u);
  // Past the largest target the size passes through unchanged.
  EXPECT_EQ(p.padded_size(9000, rng), 9000u);
  EXPECT_EQ(p.candidates(1000), std::vector<std::size_t>{3000});
}

TEST(PaddingSpec, ConstrainedWithDistributionIsNonDeterministic) {
  PadPlan plan;
  plan.entries = {{1000, {{2000, 0.5}, {4000, 0.5}}}};
  const PaddingSpec p =
      PaddingSpec::constrained(std::make_shared<const PadPlan>(plan));
  EXPECT_FALSE(p.deterministic());
  sim::Rng rng(7);
  std::set<std::size_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(p.padded_size(1000, rng));
  EXPECT_EQ(seen, (std::set<std::size_t>{2000, 4000}));
  EXPECT_EQ(p.candidates(1000), (std::vector<std::size_t>{2000, 4000}));
}

TEST(PaddingSpec, SpecResolutionAndParsing) {
  // A degenerate spec pads nothing.
  EXPECT_FALSE(PaddingSpec::none().enabled());
  EXPECT_FALSE(PaddingSpec::quantum_pad(1).enabled());
  EXPECT_TRUE(PaddingSpec::quantum_pad(2).enabled());
  EXPECT_FALSE(PaddingSpec::random_pad(0.0).enabled());
  EXPECT_FALSE(PaddingSpec::constrained(nullptr).enabled());

  auto q = parse_padding_spec("quantum:3000");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->kind, PaddingSpec::Kind::kQuantum);
  EXPECT_EQ(q->quantum, 3000u);
  auto r = parse_padding_spec("random:0.25");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->kind, PaddingSpec::Kind::kRandom);
  EXPECT_DOUBLE_EQ(r->random_fraction, 0.25);
  EXPECT_TRUE(parse_padding_spec("none").has_value());
  EXPECT_EQ(q->name(), "quantum3000");
  EXPECT_EQ(PaddingSpec::none().name(), "none");
}

TEST(PaddingSpec, ParseRejectsMalformedSpecs) {
  const char* const malformed[] = {
      "quantum:-1",
      "quantum:18446744073709551615",  // 2^64 - 1: would overflow the rounding
      "quantum:16777217",              // kMaxQuantum + 1
      "quantum: 64",
      "quantum:+64",
      "quantum:64 ",
      "quantum:",
      "quantum:0",
      "quantum:1",
      "quantum:12x",
      "random:nan",
      "random:-nan",
      "random:inf",
      "random:-1",
      "random:0",
      "random:4.5",
      "random:+0.25",
      "random:",
      "plan:/nonexistent",
      "bogus",
      "",
  };
  for (const char* text : malformed) {
    EXPECT_FALSE(parse_padding_spec(text).has_value()) << '"' << text << '"';
  }
  const auto max = parse_padding_spec("quantum:16777216");
  ASSERT_TRUE(max.has_value());
  EXPECT_EQ(max->quantum, kMaxQuantum);
  sim::Rng rng(1);
  EXPECT_GE(max->padded_size(1000, rng), 1000u);
  const auto four = parse_padding_spec("random:4");
  ASSERT_TRUE(four.has_value());
  EXPECT_DOUBLE_EQ(four->random_fraction, 4.0);
}

TEST(PaddingSpec, NamesEachKindAndDegenerateSpecsAsNone) {
  const auto plan = std::make_shared<const PadPlan>(
      optimize_constrained({1800, 2600, 3400, 5200, 9900}, 0.3));
  EXPECT_EQ(PaddingSpec::none().name(), "none");
  EXPECT_EQ(PaddingSpec::quantum_pad(3000).name(), "quantum3000");
  EXPECT_EQ(PaddingSpec::random_pad(0.25).name(), "random25");
  EXPECT_EQ(PaddingSpec::constrained(plan).name(), "constrained");
  EXPECT_EQ(PaddingSpec::quantum_pad(1).name(), "none");
  EXPECT_EQ(PaddingSpec::random_pad(0.0).name(), "none");
  EXPECT_EQ(PaddingSpec::constrained(nullptr).name(), "none");
}

TEST(PaddingSpec, DiscreteDrawsLieInCandidates) {
  PadPlan mixed;
  mixed.entries = {{1000, {{2000, 0.5}, {4000, 0.5}}}, {3000, {{4000, 1.0}}}};
  const PaddingSpec specs[] = {
      PaddingSpec::none(), PaddingSpec::quantum_pad(3000),
      PaddingSpec::constrained(std::make_shared<const PadPlan>(mixed))};
  sim::Rng rng(9);
  for (const PaddingSpec& spec : specs) {
    for (const std::size_t size :
         {0u, 1u, 999u, 1000u, 2999u, 3000u, 3500u, 9000u}) {
      const std::vector<std::size_t> support = spec.candidates(size);
      for (int i = 0; i < 16; ++i) {
        const std::size_t w = spec.padded_size(size, rng);
        EXPECT_NE(std::find(support.begin(), support.end(), w), support.end())
            << spec.name() << " size " << size << " drew " << w;
      }
    }
  }
}

// --- the constrained-padding optimizer ---

TEST(PadPlanOptimizer, RespectsBudgetAndMaximizesMinClass) {
  // Four sizes; a generous budget lets everything merge into one class.
  const std::vector<std::size_t> sizes = {1000, 1100, 1200, 1300};
  const PadPlan all = optimize_constrained(sizes, 1.0);
  EXPECT_EQ(all.min_class, 4);
  for (const auto& e : all.entries) {
    ASSERT_EQ(e.targets.size(), 1u);
    EXPECT_EQ(e.targets[0].to, 1300u);
  }
  EXPECT_LE(all.achieved_overhead, 1.0 + 1e-12);

  // A tight budget forbids any merging of these far-apart sizes.
  const std::vector<std::size_t> far = {1000, 100000};
  const PadPlan none = optimize_constrained(far, 0.01);
  EXPECT_EQ(none.min_class, 1);
  EXPECT_EQ(none.entries[0].targets[0].to, 1000u);
  EXPECT_EQ(none.entries[1].targets[0].to, 100000u);
  EXPECT_EQ(none.achieved_overhead, 0.0);
}

TEST(PadPlanOptimizer, CountsDuplicateObjectsTowardAnonymity) {
  // Three objects share size 5000: even the identity plan has class 3.
  const PadPlan p =
      optimize_constrained({5000, 5000, 5000, 90000}, 0.0);
  EXPECT_EQ(p.min_class, 1);  // the lone 90000 can't merge on a 0 budget
  EXPECT_EQ(p.entries.size(), 2u);
  const PadPlan q = optimize_constrained({5000, 5000, 5000}, 0.0);
  EXPECT_EQ(q.min_class, 3);
}

TEST(PadPlanOptimizer, PrefersCheaperPlanAtEqualAnonymity) {
  // {100, 200, 300, 400} at a budget that only allows pairing neighbors:
  // pairing (100,200)(300,400) costs 100+100=200 padding bytes. The optimizer
  // must achieve min_class 2 without padding everything to 400.
  const PadPlan p = optimize_constrained({100, 200, 300, 400}, 0.25);
  EXPECT_EQ(p.min_class, 2);
  EXPECT_EQ(p.find(100)->targets[0].to, 200u);
  EXPECT_EQ(p.find(300)->targets[0].to, 400u);
  EXPECT_NEAR(p.achieved_overhead, 200.0 / 1000.0, 1e-12);
}

TEST(PadPlanOptimizer, DegenerateInputs) {
  const PadPlan empty = optimize_constrained({}, 0.5);
  EXPECT_TRUE(empty.entries.empty());
  EXPECT_EQ(empty.min_class, 0);
  const PadPlan one = optimize_constrained({1234}, 0.5);
  ASSERT_EQ(one.entries.size(), 1u);
  EXPECT_EQ(one.entries[0].targets[0].to, 1234u);
  EXPECT_EQ(one.min_class, 1);
}

TEST(PadPlan, SerializeParseRoundTripIsByteStable) {
  const PadPlan plan = optimize_constrained({1800, 2600, 3400, 5200, 9900}, 0.3);
  const std::string json = plan.serialize();
  std::string error;
  const auto back = PadPlan::parse(json, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(*back, plan);
  EXPECT_EQ(back->serialize(), json) << "serialization must be deterministic";
}

// A non-finite probability or budget is written as null, so the document
// still parses as JSON (PadPlan::parse then refuses the plan by name).
TEST(PadPlan, NonFiniteNumbersSerializeAsNull) {
  PadPlan plan;
  plan.budget = std::numeric_limits<double>::infinity();
  plan.entries = {{1000, {{2000, std::numeric_limits<double>::quiet_NaN()}}}};
  const std::string json = plan.serialize();
  const auto doc = obs::json::parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  EXPECT_EQ(doc->find("budget")->kind, obs::json::Value::Kind::kNull);
  const obs::json::Value& target =
      doc->find("entries")->array.at(0).find("targets")->array.at(0);
  EXPECT_EQ(target.find("p")->kind, obs::json::Value::Kind::kNull);
  std::string error;
  EXPECT_FALSE(PadPlan::parse(json, &error).has_value());
  EXPECT_EQ(error, "target missing \"to\" or \"p\"");
}

TEST(PadPlan, ParseRejectsMalformedPlans) {
  std::string error;
  EXPECT_FALSE(PadPlan::parse("not json", &error).has_value());
  EXPECT_FALSE(PadPlan::parse("{\"version\":2,\"entries\":[]}").has_value());
  // Target below the original size is not padding.
  EXPECT_FALSE(
      PadPlan::parse(
          "{\"version\":1,\"budget\":0.1,\"achieved_overhead\":0,"
          "\"min_class\":1,\"entries\":[{\"size\":500,\"targets\":"
          "[{\"to\":400,\"p\":1}]}]}")
          .has_value());
  // Probabilities must sum to 1.
  EXPECT_FALSE(
      PadPlan::parse(
          "{\"version\":1,\"budget\":0.1,\"achieved_overhead\":0,"
          "\"min_class\":1,\"entries\":[{\"size\":500,\"targets\":"
          "[{\"to\":600,\"p\":0.5}]}]}")
          .has_value());
  // Sizes are non-negative integers (a negative one used to wrap).
  EXPECT_FALSE(
      PadPlan::parse(
          "{\"version\":1,\"budget\":0.1,\"achieved_overhead\":0,"
          "\"min_class\":1,\"entries\":[{\"size\":-500,\"targets\":"
          "[{\"to\":600,\"p\":1}]}]}")
          .has_value());
}

TEST(PadPlan, PlanForSiteCoversEveryObjectSize) {
  const web::Website site = web::make_isidewith_site();
  const PadPlan plan = plan_for_site(site, 0.10);
  EXPECT_LE(plan.achieved_overhead, 0.10 + 1e-12);
  EXPECT_GE(plan.min_class, 2) << "10% budget should buy some anonymity";
  for (const auto& [path, obj] : site.objects()) {
    EXPECT_NE(plan.find(obj.size), nullptr) << path;
  }
}

}  // namespace
}  // namespace h2sim::defense

namespace h2sim::analysis {
namespace {

// --- size estimation under padding (Morla's metric) ---

TEST(PaddingSpec, EstimateInvertsEachScheme) {
  // none: identity.
  EXPECT_EQ(defense::PaddingSpec::none().estimate(5000), 5000u);
  // quantum: midpoint of the feasible interval (observed-q, observed].
  const auto q = defense::PaddingSpec::quantum_pad(3000);
  EXPECT_EQ(q.estimate(6000), 4500u);  // (3001 + 6000) / 2
  // random f: divide out the mean inflation 1 + f/2.
  const auto r = defense::PaddingSpec::random_pad(0.5);
  EXPECT_EQ(r.estimate(12500), 10000u);
  // constrained: posterior mean of the originals mapping near the target.
  defense::PadPlan plan;
  plan.entries = {{1000, {{3000, 1.0}}},
                  {2000, {{3000, 1.0}}},
                  {8000, {{9000, 1.0}}}};
  const auto c = defense::PaddingSpec::constrained(
      std::make_shared<const defense::PadPlan>(plan));
  EXPECT_EQ(c.estimate(3000), 1500u);  // mean of {1000, 2000}
  EXPECT_EQ(c.estimate(9000), 8000u);
  EXPECT_EQ(c.estimate(4242), 4242u);  // off-plan observation passes through
  // Degenerate specs are undefended: the observation is the size.
  EXPECT_EQ(defense::PaddingSpec::quantum_pad(1).estimate(5000), 5000u);
  EXPECT_EQ(defense::PaddingSpec::random_pad(0.0).estimate(5000), 5000u);
  EXPECT_EQ(defense::PaddingSpec::constrained(nullptr).estimate(5000), 5000u);
}

TEST(SizeErrorStats, NearestRankQuantiles) {
  std::vector<double> errs;
  for (int i = 1; i <= 10; ++i) errs.push_back(i * 0.01);
  const SizeErrorStats s = summarize_errors(errs, 2);
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_NEAR(s.mean, 0.055, 1e-12);
  EXPECT_NEAR(s.p50, 0.05, 1e-12);
  EXPECT_NEAR(s.p90, 0.09, 1e-12);
  EXPECT_NEAR(s.max, 0.10, 1e-12);
  const SizeErrorStats none = summarize_errors({}, 0);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.mean, 0.0);
}

TEST(ScoreRecoveredSizes, MatchesByWireSizeAndScoresAgainstTruth) {
  std::vector<DetectedObject> detections(2);
  detections[0].size_estimate = 6000;
  detections[1].size_estimate = 9000;
  const std::vector<PaddedTruth> truths = {
      {"a", 5200, 6000}, {"b", 8600, 9000}, {"c", 20000, 21000}};
  std::size_t misses = 0;
  const auto samples = score_recovered_sizes(
      detections, truths, defense::PaddingSpec::quantum_pad(3000), &misses);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(misses, 1u);  // "c" has no detection anywhere near 21000
  EXPECT_EQ(samples[0].label, "a");
  EXPECT_EQ(samples[0].estimate, 4500u);
  EXPECT_NEAR(samples[0].rel_error, (5200.0 - 4500.0) / 5200.0, 1e-12);
  EXPECT_EQ(samples[1].label, "b");
  EXPECT_EQ(samples[1].estimate, 7500u);
}

TEST(DefenseSuspicion, FlagsCollisionsAndQuantum) {
  // Undefended database: distinct sizes, nothing suspicious.
  SizeIdentityDb clean;
  clean.add("a", 5200);
  clean.add("b", 6700);
  EXPECT_FALSE(suspect_defense({}, clean).suspected);

  // Padded database: merged size classes collide within tolerance.
  SizeIdentityDb padded;
  padded.add("a", 6000);
  padded.add("b", 6000);
  const DefenseSuspicion d = suspect_defense({}, padded);
  EXPECT_TRUE(d.suspected);
  EXPECT_GE(d.db_collisions, 1);

  // Quantum sniffing: detected sizes sharing a large common divisor.
  std::vector<DetectedObject> dets(3);
  dets[0].size_estimate = 6000;
  dets[1].size_estimate = 9000;
  dets[2].size_estimate = 15000;
  const DefenseSuspicion q = suspect_defense(dets, clean);
  EXPECT_TRUE(q.suspected);
  EXPECT_EQ(q.inferred_quantum, 3000u);
}

}  // namespace
}  // namespace h2sim::analysis

namespace h2sim::experiment {
namespace {

// --- wire honesty, end to end ---

// Sums the DATA bytes of each label's first (primary) stream.
std::map<std::string, std::size_t> primary_wire_bytes(TrialConfig cfg) {
  std::map<std::string, std::size_t> bytes;
  cfg.wire_log_inspector = [&bytes](const analysis::WireLog& log) {
    std::map<std::string, std::uint32_t> first_stream;
    for (const auto& ev : log.events()) {
      if (ev.object.empty() || !ev.is_data) continue;
      auto [it, fresh] = first_stream.try_emplace(ev.object, ev.stream_id);
      if (ev.stream_id == it->second) bytes[ev.object] += ev.data_bytes;
    }
  };
  run_trial(cfg);
  return bytes;
}

TEST(WirePadding, PaddingBytesRideRealDataFrames) {
  TrialConfig cfg;
  cfg.seed = 11;
  const auto plain = primary_wire_bytes(cfg);

  TrialConfig padded_cfg = cfg;
  padded_cfg.defense.padding = defense::PaddingSpec::quantum_pad(3000);
  const auto padded = primary_wire_bytes(padded_cfg);

  const web::Website site = web::make_isidewith_site();
  for (const auto& [path, obj] : site.objects()) {
    ASSERT_TRUE(plain.count(obj.label)) << obj.label;
    ASSERT_TRUE(padded.count(obj.label)) << obj.label;
    EXPECT_EQ(plain.at(obj.label), obj.size) << obj.label;
    EXPECT_EQ(padded.at(obj.label), (obj.size + 2999) / 3000 * 3000)
        << obj.label;
  }
}

TEST(WirePadding, DummiesArePaddedLikeEveryResponse) {
  // Cover traffic gets no exemption: a dummy served at its raw size would
  // leak a fresh, unpadded size class beside the padded real objects.
  TrialConfig cfg;
  cfg.seed = 15;
  cfg.defense.dummy_count = 4;
  cfg.defense.padding = defense::PaddingSpec::quantum_pad(3000);
  const auto bytes = primary_wire_bytes(cfg);
  int dummies = 0;
  for (const auto& [label, wire] : bytes) {
    if (label.rfind("dummy", 0) != 0) continue;
    ++dummies;
    EXPECT_EQ(wire % 3000, 0u) << label << " served " << wire << " bytes";
  }
  EXPECT_EQ(dummies, cfg.defense.dummy_count);
}

TEST(WirePadding, MonitorObservesThePaddedBytes) {
  // The gateway adversary must see the overhead on the wire: total observed
  // server->client record payload grows by roughly the padding overhead.
  auto observed_bytes = [](defense::PaddingSpec spec) {
    TrialConfig cfg;
    cfg.seed = 12;
    cfg.defense.padding = std::move(spec);
    std::size_t total = 0;
    cfg.trace_inspector = [&total](const analysis::PacketTrace& t) {
      for (const auto& r : t.records()) {
        if (r.dir == net::Direction::kServerToClient) total += r.body_len;
      }
    };
    run_trial(cfg);
    return total;
  };
  const std::size_t plain = observed_bytes(defense::PaddingSpec::none());
  const std::size_t padded =
      observed_bytes(defense::PaddingSpec::quantum_pad(3000));
  EXPECT_GT(padded, plain);
}

TEST(WirePadding, RandomPolicyStaysWithinBoundAndIsSeedDeterministic) {
  TrialConfig cfg;
  cfg.seed = 13;
  cfg.defense.padding = defense::PaddingSpec::random_pad(0.25);
  const auto a = primary_wire_bytes(cfg);
  const auto b = primary_wire_bytes(cfg);
  EXPECT_EQ(a, b) << "same seed must produce the same padded wire";

  const web::Website site = web::make_isidewith_site();
  bool any_padded = false;
  for (const auto& [path, obj] : site.objects()) {
    ASSERT_TRUE(a.count(obj.label)) << obj.label;
    EXPECT_GE(a.at(obj.label), obj.size) << obj.label;
    EXPECT_LE(a.at(obj.label), obj.size + obj.size / 4) << obj.label;
    if (a.at(obj.label) > obj.size) any_padded = true;
  }
  EXPECT_TRUE(any_padded);
}

TEST(WirePadding, ConstrainedPolicyServesPlanTargets) {
  const web::Website site = web::make_isidewith_site();
  auto plan = std::make_shared<const defense::PadPlan>(
      defense::plan_for_site(site, 0.10));
  TrialConfig cfg;
  cfg.seed = 14;
  cfg.defense.padding = defense::PaddingSpec::constrained(plan);
  const auto bytes = primary_wire_bytes(cfg);
  for (const auto& [path, obj] : site.objects()) {
    const defense::PadPlanEntry* e = plan->find(obj.size);
    ASSERT_NE(e, nullptr) << path;
    ASSERT_TRUE(bytes.count(obj.label)) << obj.label;
    EXPECT_EQ(bytes.at(obj.label), e->targets[0].to) << obj.label;
  }
}

TEST(WirePadding, NoneSpecKeepsTrialBitIdentical) {
  // A degenerate spec is undefended in every respect: no padding, no RNG
  // split, plain-size databases.
  TrialConfig plain;
  plain.seed = 21;
  plain.attack = full_attack_config();
  const TrialResult a = run_trial(plain);
  for (const defense::PaddingSpec& spec :
       {defense::PaddingSpec::quantum_pad(1), defense::PaddingSpec::random_pad(0.0),
        defense::PaddingSpec::constrained(nullptr)}) {
    SCOPED_TRACE(static_cast<int>(spec.kind));
    TrialConfig with_spec = plain;
    with_spec.defense.padding = spec;
    const TrialResult b = run_trial(with_spec);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(result_digest(a), result_digest(b));
  }
}

TEST(WirePadding, DefenseDegradesTheStagedAttack) {
  int undefended_hits = 0, defended_hits = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    TrialConfig cfg;
    cfg.seed = seed;
    cfg.attack = full_attack_config();
    const TrialResult plain = run_trial(cfg);
    cfg.defense.padding = defense::PaddingSpec::quantum_pad(6000);
    const TrialResult defended = run_trial(cfg);
    for (int j = 1; j <= 8; ++j) {
      if (plain.success[static_cast<std::size_t>(j)]) ++undefended_hits;
      if (defended.success[static_cast<std::size_t>(j)]) ++defended_hits;
    }
  }
  EXPECT_LT(defended_hits, undefended_hits)
      << "coarse wire padding must cost the attack emblem identifications";
}

}  // namespace
}  // namespace h2sim::experiment
