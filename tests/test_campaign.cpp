// Streaming campaign telemetry: Welford accumulators vs naive statistics,
// mergeable histograms, the TrialRecord NDJSON schema's exact round-trip,
// streamed-vs-reference aggregate equality over a 32-seed grid, the wave
// manifest (and its rejection of hostile fields), kill-and-resume
// byte-equivalence, shard-corruption detection, live reports, and the
// wall-time component profiler.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/campaign.hpp"
#include "experiment/runner.hpp"
#include "experiment/sink.hpp"
#include "obs/aggregate.hpp"
#include "obs/context.hpp"
#include "obs/profiler.hpp"
#include "obs/sha256.hpp"

namespace h2sim::experiment {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
}

std::string temp_dir(const char* tag) {
  static int counter = 0;
  return testing::TempDir() + "h2sim_campaign_" + tag + "_" +
         std::to_string(++counter);
}

TrialConfig quick_config() {
  TrialConfig cfg;
  cfg.attack.enabled = false;
  cfg.site_builder = [] { return web::make_two_object_site(20000, 40000); };
  return cfg;
}

// ---------------------------------------------------------------- obs core

TEST(StatAccumulator, MatchesNaiveStatistics) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-5.0, 20.0);
  std::vector<double> xs;
  obs::StatAccumulator acc;
  for (int i = 0; i < 1000; ++i) {
    const double x = dist(rng);
    xs.push_back(x);
    acc.add(x);
  }
  double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(acc.count, xs.size());
  EXPECT_NEAR(acc.mean, mean, 1e-12);
  EXPECT_NEAR(acc.variance(), var, 1e-9);
  EXPECT_EQ(acc.min, *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(acc.max, *std::max_element(xs.begin(), xs.end()));
  EXPECT_NEAR(acc.ci95_halfwidth(),
              1.96 * std::sqrt(var / static_cast<double>(xs.size())), 1e-9);
}

TEST(StatAccumulator, MergeMatchesSequentialWithinTolerance) {
  obs::StatAccumulator left, right, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i * 0.7) * 10.0;
    (i < 40 ? left : right).add(x);
    all.add(x);
  }
  obs::StatAccumulator merged = left;
  merged.merge(right);
  EXPECT_EQ(merged.count, all.count);
  EXPECT_EQ(merged.min, all.min);
  EXPECT_EQ(merged.max, all.max);
  EXPECT_NEAR(merged.mean, all.mean, 1e-12);
  EXPECT_NEAR(merged.m2, all.m2, 1e-9);

  // Merging into an empty accumulator is an exact copy.
  obs::StatAccumulator from_empty;
  from_empty.merge(all);
  EXPECT_EQ(from_empty, all);
  // Merging an empty one is a no-op.
  obs::StatAccumulator copy = all;
  copy.merge(obs::StatAccumulator{});
  EXPECT_EQ(copy, all);
}

TEST(HistogramData, MergeRequiresIdenticalEdges) {
  obs::HistogramData a;
  a.edges = {1.0, 2.0};
  a.counts = {3, 1, 0};
  a.count = 4;
  a.sum = 5.5;
  obs::HistogramData b = a;
  b.counts = {0, 2, 7};
  b.count = 9;
  b.sum = 30.0;

  obs::HistogramData sum = a;
  ASSERT_TRUE(sum.merge(b));
  EXPECT_EQ(sum.counts, (std::vector<std::uint64_t>{3, 3, 7}));
  EXPECT_EQ(sum.count, 13u);
  EXPECT_DOUBLE_EQ(sum.sum, 35.5);

  // Edge mismatch: refused, left untouched.
  obs::HistogramData other;
  other.edges = {1.0, 3.0};
  other.counts = {1, 1, 1};
  obs::HistogramData before = a;
  EXPECT_FALSE(a.merge(other));
  EXPECT_EQ(a, before);

  // An empty accumulator adopts the other side wholesale.
  obs::HistogramData empty;
  ASSERT_TRUE(empty.merge(b));
  EXPECT_EQ(empty, b);

  // operator+= is merge with the mismatch treated as a programming error.
  obs::HistogramData c = a;
  c += b;
  EXPECT_EQ(c.count, 13u);
}

TEST(AggregateTable, NdjsonIsDeterministicAndMergeable) {
  obs::AggregateTable t1, t2;
  t1.cell("b").add("x", 1.0);
  t1.cell("a").add("x", 2.0);
  t2.cell("a").add("x", 2.0);
  t2.cell("b").add("x", 1.0);
  EXPECT_EQ(t1.ndjson(), t2.ndjson());  // label-sorted, insertion-order-free
  EXPECT_EQ(t1.ndjson().substr(0, 12), "{\"cell\": \"a\"");

  obs::AggregateTable merged = t1;
  merged.merge(t2);
  EXPECT_EQ(merged.total_trials(), 0u);  // add() doesn't bump trials
  ASSERT_NE(merged.find("a"), nullptr);
  EXPECT_EQ(merged.find("a")->stats.at("x").count, 2u);
}

// ------------------------------------------------------------ TrialRecord

TEST(TrialRecord, NdjsonRoundTripIsExact) {
  TrialRecord rec;
  rec.index = 12345;
  rec.seed = 0xdeadbeef;
  rec.cell = "attack=full,pad=256,\"quoted\"";
  for (std::size_t i = 0; i < TrialRecord::kFieldCount; ++i) {
    // Awkward doubles: %.17g must carry them through exactly.
    rec.values[i] = std::sqrt(static_cast<double>(i) + 0.1) * 1e-3;
  }
  const std::string line = trial_record_ndjson(rec);
  const auto back = parse_trial_record(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, rec);
  // Re-serialization is byte-identical — the basis of shard checksums.
  EXPECT_EQ(trial_record_ndjson(*back), line);
}

TEST(TrialRecord, ParseRejectsMalformedAndForeignSchema) {
  EXPECT_FALSE(parse_trial_record("not json"));
  EXPECT_FALSE(parse_trial_record("{\"index\": 1}"));
  TrialRecord rec;
  std::string line = trial_record_ndjson(rec);
  // Rename one field: schema-foreign.
  const std::size_t pos = line.find("page_complete");
  ASSERT_NE(pos, std::string::npos);
  line.replace(pos, 13, "page_COMPLETE");
  EXPECT_FALSE(parse_trial_record(line));
  // A negative index is not an index (it used to wrap to 2^64 - 1).
  std::string negative = trial_record_ndjson(rec);
  negative.replace(0, 11, "{\"index\": -1");
  EXPECT_FALSE(parse_trial_record(negative)) << negative;
}

// -------------------------------------------------- streamed == reference

// Acceptance criterion: per-cell aggregates streamed through a sink during a
// parallel run must equal — bit for bit, compared through the serialized
// NDJSON — a reference reduction that materializes every result in memory
// and applies them sequentially in index order.
TEST(AggregatingSink, StreamedMatchesReferenceReductionBitForBit) {
  std::vector<TrialConfig> cfgs;
  for (std::uint64_t s = 1; s <= 32; ++s) {
    TrialConfig cfg = quick_config();
    cfg.seed = s;
    // Two "cells" interleaved by parity to exercise per-cell keying.
    cfgs.push_back(cfg);
  }
  auto labeler = [](std::size_t index, const TrialConfig&) {
    return index % 2 == 0 ? std::string("even") : std::string("odd");
  };

  // Reference: in-memory results, sequential reduction in index order.
  const std::vector<TrialResult> results = run_trials(cfgs);
  obs::AggregateTable reference;
  for (std::size_t i = 0; i < results.size(); ++i) {
    apply_trial_record(
        reference,
        make_trial_record(i, cfgs[i], labeler(i, cfgs[i]), results[i]));
  }

  // Streamed: parallel run, no result vector, sink reduces canonically.
  AggregatingSink sink(labeler);
  RunOptions opts;
  opts.jobs = 4;
  opts.collect_results = false;
  opts.sink = &sink;
  const std::vector<TrialResult> empty = run_trials(cfgs, opts);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(sink.applied(), cfgs.size());
  EXPECT_EQ(sink.table().ndjson(), reference.ndjson());
  EXPECT_EQ(sink.table(), reference);
}

TEST(AggregatingSink, OnRecordSeesCanonicalOrder) {
  std::vector<TrialConfig> cfgs;
  for (std::uint64_t s = 50; s < 58; ++s) {
    TrialConfig cfg = quick_config();
    cfg.seed = s;
    cfgs.push_back(cfg);
  }
  AggregatingSink sink(nullptr, /*base_index=*/100);
  std::vector<std::uint64_t> seen;
  sink.on_record = [&seen](const TrialRecord& rec) { seen.push_back(rec.index); };
  RunOptions opts;
  opts.jobs = 3;
  opts.collect_results = false;
  opts.sink = &sink;
  run_trials(cfgs, opts);
  ASSERT_EQ(seen.size(), cfgs.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 100 + i);  // ascending global index, no holes
  }
}

// ---------------------------------------------------------------- campaign

CampaignOptions small_campaign(const std::string& out_dir) {
  CampaignOptions opts;
  CampaignCell a{"site=a", quick_config()};
  CampaignCell b{"site=b", quick_config()};
  b.base.site_builder = [] { return web::make_two_object_site(25000, 30000); };
  opts.cells = {a, b};
  opts.trials_per_cell = 6;
  opts.wave_seeds = 2;
  opts.jobs = 2;
  opts.out_dir = out_dir;
  return opts;
}

TEST(Campaign, ManifestJsonRoundTrips) {
  CampaignManifest m;
  m.config_digest = "abc";
  m.seed_base = 3;
  m.trials_per_cell = 100;
  m.wave_seeds = 10;
  m.cells = {"x", "y"};
  m.shards.push_back({"shard-00000.ndjson", 20, "feed"});
  m.stopped_cells = {"y"};
  m.complete = true;
  const auto back = CampaignManifest::parse(m.json());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->config_digest, m.config_digest);
  EXPECT_EQ(back->seed_base, m.seed_base);
  EXPECT_EQ(back->trials_per_cell, m.trials_per_cell);
  EXPECT_EQ(back->wave_seeds, m.wave_seeds);
  EXPECT_EQ(back->cells, m.cells);
  ASSERT_EQ(back->shards.size(), 1u);
  EXPECT_EQ(back->shards[0].file, "shard-00000.ndjson");
  EXPECT_EQ(back->shards[0].rows, 20u);
  EXPECT_EQ(back->shards[0].sha256, "feed");
  EXPECT_EQ(back->stopped_cells, m.stopped_cells);
  EXPECT_TRUE(back->complete);
}

TEST(Campaign, InterruptedThenResumedEqualsUninterruptedByteForByte) {
  const std::string ref_dir = temp_dir("ref");
  const std::string int_dir = temp_dir("int");

  CampaignOptions ref = small_campaign(ref_dir);
  const CampaignOutcome ref_out = run_campaign(ref);
  ASSERT_TRUE(ref_out.ok) << ref_out.error;
  ASSERT_TRUE(ref_out.complete);
  EXPECT_EQ(ref_out.trials_total, 12u);

  // "Kill" after 4 trials (one wave), then resume with a different worker
  // count — scheduling must not leak into the aggregates.
  CampaignOptions first = small_campaign(int_dir);
  first.max_trials_this_run = 4;
  const CampaignOutcome first_out = run_campaign(first);
  ASSERT_TRUE(first_out.ok) << first_out.error;
  EXPECT_FALSE(first_out.complete);
  EXPECT_EQ(first_out.trials_run, 4u);

  CampaignOptions second = small_campaign(int_dir);
  second.resume = true;
  second.jobs = 1;
  const CampaignOutcome second_out = run_campaign(second);
  ASSERT_TRUE(second_out.ok) << second_out.error;
  EXPECT_TRUE(second_out.complete);
  EXPECT_EQ(second_out.trials_run, 8u);
  EXPECT_EQ(second_out.trials_total, 12u);

  EXPECT_EQ(slurp(ref_dir + "/aggregates.ndjson"),
            slurp(int_dir + "/aggregates.ndjson"));
  EXPECT_FALSE(slurp(ref_dir + "/aggregates.ndjson").empty());
  // Every shard byte-identical too: same records in the same order.
  for (int w = 0; w < 3; ++w) {
    char name[32];
    std::snprintf(name, sizeof(name), "/shard-%05d.ndjson", w);
    EXPECT_EQ(slurp(ref_dir + name), slurp(int_dir + name)) << name;
  }
}

TEST(Campaign, ResumeRefusesCorruptedShard) {
  const std::string dir = temp_dir("corrupt");
  CampaignOptions opts = small_campaign(dir);
  opts.max_trials_this_run = 4;
  ASSERT_TRUE(run_campaign(opts).ok);

  // Flip a digit inside the recorded shard.
  const std::string shard_path = dir + "/shard-00000.ndjson";
  std::string content = slurp(shard_path);
  ASSERT_FALSE(content.empty());
  const std::size_t digit = content.find_first_of("0123456789");
  ASSERT_NE(digit, std::string::npos);
  content[digit] = content[digit] == '9' ? '8' : '9' ;
  spit(shard_path, content);

  CampaignOptions resume = small_campaign(dir);
  resume.resume = true;
  const CampaignOutcome out = run_campaign(resume);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("checksum"), std::string::npos) << out.error;
}

TEST(Campaign, ResumeRefusesDifferentGrid) {
  const std::string dir = temp_dir("digest");
  CampaignOptions opts = small_campaign(dir);
  opts.max_trials_this_run = 4;
  ASSERT_TRUE(run_campaign(opts).ok);

  CampaignOptions other = small_campaign(dir);
  other.resume = true;
  other.trials_per_cell = 99;  // different grid shape
  const CampaignOutcome out = run_campaign(other);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("digest"), std::string::npos) << out.error;
}

TEST(Campaign, CiEarlyStopHaltsCellDeterministically) {
  const std::string d1 = temp_dir("stop1");
  const std::string d2 = temp_dir("stop2");
  // A generous half-width stops every cell at the first eligible boundary.
  for (const std::string* dir : {&d1, &d2}) {
    CampaignOptions opts = small_campaign(*dir);
    opts.trials_per_cell = 6;
    opts.wave_seeds = 2;
    opts.ci_stop_halfwidth = 10.0;
    opts.ci_stop_min_trials = 4;
    if (dir == &d2) {
      opts.max_trials_this_run = 4;  // interrupt before the stop decision
      ASSERT_TRUE(run_campaign(opts).ok);
      opts.max_trials_this_run = 0;
      opts.resume = true;
    }
    const CampaignOutcome out = run_campaign(opts);
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_TRUE(out.complete);
    // Stopped after wave 2 (4 trials/cell >= min), not the full 6.
    EXPECT_EQ(out.trials_total, 8u);
  }
  EXPECT_EQ(slurp(d1 + "/aggregates.ndjson"), slurp(d2 + "/aggregates.ndjson"));
}

// Hostile manifests: every count must be a non-negative integer that fits,
// shard i must be named shard_name(i) (resume joins it to out_dir), and no
// nesting depth may crash the reader.
TEST(Campaign, ManifestParseRejectsHostileFields) {
  CampaignManifest m;
  m.config_digest = "abc";
  m.seed_base = 3;
  m.trials_per_cell = 100;
  m.wave_seeds = 10;
  m.cells = {"x"};
  m.shards.push_back({"shard-00000.ndjson", 20, "feed"});
  const std::string good = m.json();
  ASSERT_TRUE(CampaignManifest::parse(good));
  const auto with = [&good](const std::string& from, const std::string& to) {
    std::string s = good;
    const std::size_t pos = s.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    return pos == std::string::npos ? s : s.replace(pos, from.size(), to);
  };
  const std::vector<std::string> hostile = {
      with("\"wave_seeds\": 10", "\"wave_seeds\": -5"),
      with("\"seed_base\": 3", "\"seed_base\": 3.5"),
      with("\"trials_per_cell\": 100", "\"trials_per_cell\": 1e300"),
      with("\"trials_per_cell\": 100",
           "\"trials_per_cell\": 18446744073709551616"),
      with("\"rows\": 20", "\"rows\": -1"),
      with("shard-00000.ndjson", "../../etc/hostname"),
      with("shard-00000.ndjson", "shard-00001.ndjson"),
      std::string(1'000'000, '['),
  };
  for (const std::string& text : hostile) {
    EXPECT_FALSE(CampaignManifest::parse(text)) << text.substr(0, 200);
  }

  // Through --resume, a hostile manifest is a clean "malformed" error.
  const std::string dir = temp_dir("hostile");
  CampaignOptions opts = small_campaign(dir);
  opts.max_trials_this_run = 4;
  ASSERT_TRUE(run_campaign(opts).ok);
  spit(dir + "/manifest.json", hostile.back());
  opts.max_trials_this_run = 0;
  opts.resume = true;
  const CampaignOutcome out = run_campaign(opts);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("malformed manifest"), std::string::npos)
      << out.error;
}

// Live telemetry rides the wave sink: with a fine interval, reports also
// land inside waves, and they never change a byte of the output.
TEST(Campaign, MidWaveReportsLeaveAggregatesByteIdentical) {
  const std::string quiet_dir = temp_dir("quiet");
  const std::string live_dir = temp_dir("live");
  CampaignOptions quiet = small_campaign(quiet_dir);
  quiet.jobs = 1;
  ASSERT_TRUE(run_campaign(quiet).ok);

  CampaignOptions live = small_campaign(live_dir);
  live.jobs = 1;
  live.report_interval_seconds = 1e-9;
  std::vector<CampaignReport> reports;
  live.on_report = [&reports](const CampaignReport& r) {
    reports.push_back(r);
  };
  const CampaignOutcome out = run_campaign(live);
  ASSERT_TRUE(out.ok) << out.error;

  // 2 cells x 2 seeds per wave: boundaries fall on multiples of 4 trials.
  std::size_t inside = 0;
  for (const CampaignReport& r : reports) {
    EXPECT_GE(r.eta_seconds, 0.0);
    EXPECT_GE(r.trials_per_sec, 0.0);
    EXPECT_LE(r.trials_done, r.trials_target);
    if (r.trials_done % 4 != 0) ++inside;
  }
  EXPECT_GE(inside, 1u);
  EXPECT_EQ(slurp(quiet_dir + "/aggregates.ndjson"),
            slurp(live_dir + "/aggregates.ndjson"));
}

TEST(Campaign, ZeroReportIntervalReportsOnlyAtWaveBoundaries) {
  CampaignOptions opts = small_campaign(temp_dir("boundary"));
  std::vector<CampaignReport> reports;
  opts.on_report = [&reports](const CampaignReport& r) {
    reports.push_back(r);
  };
  ASSERT_TRUE(run_campaign(opts).ok);
  ASSERT_EQ(reports.size(), 3u);  // 6 trials per cell in waves of 2
  for (std::size_t w = 0; w < reports.size(); ++w) {
    EXPECT_EQ(reports[w].wave, w + 1);
    EXPECT_EQ(reports[w].trials_done, 4 * (w + 1));
    EXPECT_EQ(reports[w].trials_target, 12u);
  }
  EXPECT_EQ(reports.back().eta_seconds, 0.0);
}

// ---------------------------------------------------------------- sha256

TEST(Sha256, KnownVectors) {
  EXPECT_EQ(obs::sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(obs::sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  // Streaming across chunk boundaries equals one-shot.
  obs::Sha256 h;
  const std::string msg(1000, 'x');
  h.update(msg.substr(0, 63));
  h.update(msg.substr(63, 65));
  h.update(msg.substr(128));
  EXPECT_EQ(h.hex_digest(), obs::sha256_hex(msg));
}

// --------------------------------------------------------------- profiler

TEST(Profiler, AttributesSelfTimeAndNests) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  auto& prof = obs::profiler();
  prof.set_enabled(true);
  {
    obs::ProfileScope outer(obs::Component::kTcp);
    {
      obs::ProfileScope inner(obs::Component::kTls);
    }
    {
      obs::ProfileScope inner(obs::Component::kTls);
    }
  }
  const auto& paths = prof.paths();
  ASSERT_EQ(paths.size(), 2u);
  ASSERT_TRUE(paths.count("tcp"));
  ASSERT_TRUE(paths.count("tcp;tls"));
  EXPECT_EQ(paths.at("tcp").calls, 1u);
  EXPECT_EQ(paths.at("tcp;tls").calls, 2u);
  // Self-time decomposition: component totals are disjoint.
  EXPECT_GT(prof.component_self_ns(obs::Component::kTls), 0u);

  const std::string folded = prof.collapsed();
  EXPECT_NE(folded.find("tcp;tls "), std::string::npos);

  const auto counters = prof.counter_events(sim::TimePoint::from_nanos(42));
  ASSERT_EQ(counters.size(), 2u);
  for (const auto& e : counters) {
    EXPECT_EQ(e.phase, 'C');
    EXPECT_EQ(e.ts_ns, 42);
  }

  prof.reset();
  EXPECT_TRUE(prof.paths().empty());
  EXPECT_TRUE(prof.enabled());  // reset keeps the arming
}

TEST(Profiler, DisabledScopeRecordsNothing) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  auto& prof = obs::profiler();
  ASSERT_FALSE(prof.enabled());  // off by default
  {
    obs::ProfileScope p(obs::Component::kNet);
  }
  EXPECT_TRUE(prof.paths().empty());
  EXPECT_EQ(prof.component_self_ns(obs::Component::kNet), 0u);
}

TEST(Profiler, TrialProbesProduceComponentBreakdown) {
  obs::Context ctx;
  ctx.profiler.set_enabled(true);
  obs::ScopedContext scope(ctx);
  TrialConfig cfg = quick_config();
  cfg.seed = 77;
  const TrialResult r = run_trial(cfg);
  EXPECT_TRUE(r.page_complete);
  // The in-tree probes cover the packet path end to end.
  EXPECT_GT(ctx.profiler.component_self_ns(obs::Component::kNet), 0u);
  EXPECT_GT(ctx.profiler.component_self_ns(obs::Component::kTcp), 0u);
  EXPECT_GT(ctx.profiler.component_self_ns(obs::Component::kTls), 0u);
  EXPECT_GT(ctx.profiler.component_self_ns(obs::Component::kH2), 0u);
}

// Profiling must not perturb behaviour: identical TrialResults with the
// profiler on and off (wall time never feeds results or digests).
TEST(Profiler, DoesNotChangeTrialResults) {
  TrialConfig cfg = quick_config();
  cfg.seed = 99;
  obs::Context plain, profiled;
  profiled.profiler.set_enabled(true);
  TrialResult a, b;
  {
    obs::ScopedContext scope(plain);
    a = run_trial(cfg);
  }
  {
    obs::ScopedContext scope(profiled);
    b = run_trial(cfg);
  }
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace h2sim::experiment
