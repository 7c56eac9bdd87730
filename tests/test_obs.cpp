// Observability layer: metrics registry semantics, histogram bucketing,
// tracer gating, export well-formedness (parsed back with the obs JSON
// reader), and the harness contract that TrialResult counters are the
// registry's numbers, read the same whether a trial ran standalone or under
// run_trials.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/harness.hpp"
#include "experiment/runner.hpp"
#include "experiment/sink.hpp"
#include "obs/context.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace h2sim {
namespace {

TEST(MetricsRegistryTest, CountersAggregateAcrossHandles) {
  auto& reg = obs::metrics();
  obs::Counter a = reg.counter("test_obs.shared");
  obs::Counter b = reg.counter("test_obs.shared");  // same storage
  a.inc();
  b.add(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.counter_value("test_obs.shared"), 5u);
  EXPECT_EQ(reg.counter_value("test_obs.never_registered"), 0u);
}

TEST(MetricsRegistryTest, DefaultConstructedHandlesAreInert) {
  obs::Counter c;
  obs::Gauge g;
  obs::Histogram h;
  c.inc();
  g.set(3.0);
  h.observe(1.0);  // must not crash
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.data(), nullptr);
}

TEST(MetricsRegistryTest, ResetZeroesValuesButKeepsHandlesValid) {
  auto& reg = obs::metrics();
  obs::Counter c = reg.counter("test_obs.reset_me");
  obs::Gauge g = reg.gauge("test_obs.reset_gauge");
  obs::Histogram h = reg.histogram("test_obs.reset_hist", {1.0, 2.0});
  c.add(7);
  g.set(1.5);
  h.observe(1.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.data()->count, 0u);
  // Handles registered before the reset still point at live storage.
  c.inc();
  EXPECT_EQ(reg.counter_value("test_obs.reset_me"), 1u);
}

TEST(MetricsRegistryTest, HistogramBucketEdges) {
  auto& reg = obs::metrics();
  obs::Histogram h = reg.histogram("test_obs.edges", {10.0, 20.0, 30.0});
  const obs::HistogramData* d = h.data();
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->counts.size(), 4u);  // 3 edges + overflow

  reg.reset();
  h.observe(5.0);    // below first edge -> bucket 0
  h.observe(10.0);   // v <= edge is inclusive -> bucket 0
  h.observe(10.001); // just above -> bucket 1
  h.observe(20.0);   // -> bucket 1
  h.observe(30.0);   // -> bucket 2
  h.observe(31.0);   // beyond the last edge -> overflow bucket
  h.observe(1e12);   // far overflow

  EXPECT_EQ(d->counts[0], 2u);
  EXPECT_EQ(d->counts[1], 2u);
  EXPECT_EQ(d->counts[2], 1u);
  EXPECT_EQ(d->counts[3], 2u);
  EXPECT_EQ(d->count, 7u);
  EXPECT_DOUBLE_EQ(d->sum, 5.0 + 10.0 + 10.001 + 20.0 + 30.0 + 31.0 + 1e12);
}

TEST(MetricsRegistryTest, BucketGenerators) {
  const auto lin = obs::linear_buckets(0.0, 10.0, 4);
  ASSERT_EQ(lin.size(), 4u);
  EXPECT_DOUBLE_EQ(lin[0], 0.0);
  EXPECT_DOUBLE_EQ(lin[3], 30.0);
  const auto exp = obs::exponential_buckets(1.0, 2.0, 5);
  ASSERT_EQ(exp.size(), 5u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[4], 16.0);
}

TEST(MetricsRegistryTest, MetricsJsonRoundTrips) {
  auto& reg = obs::metrics();
  reg.reset();
  reg.counter("test_obs.json_counter").add(42);
  reg.gauge("test_obs.json_gauge").set(2.5);
  obs::Histogram h = reg.histogram("test_obs.json_hist", {1.0, 8.0});
  h.observe(0.5);
  h.observe(100.0);

  const auto doc = obs::json::parse(obs::metrics_json(reg.snapshot()));
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const obs::json::Value* c = counters->find("test_obs.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number, 42.0);
  const obs::json::Value* g = doc->find("gauges")->find("test_obs.json_gauge");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->number, 2.5);
  const obs::json::Value* hv =
      doc->find("histograms")->find("test_obs.json_hist");
  ASSERT_NE(hv, nullptr);
  ASSERT_TRUE(hv->find("counts")->is_array());
  EXPECT_EQ(hv->find("counts")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(hv->find("count")->number, 2.0);
}

// Writer -> reader round trip through metrics_snapshot_from_json: the
// reconstructed MetricsSnapshot must equal the original, histograms (edges,
// counts, count, sum) included, with doubles carried bit-exactly by %.17g.
TEST(MetricsRegistryTest, SnapshotJsonWriteReadRoundTrips) {
  auto& reg = obs::metrics();
  reg.reset();
  reg.counter("test_obs.rt_counter").add(7);
  // An awkward double that a short decimal rendering would corrupt.
  reg.gauge("test_obs.rt_gauge").set(0.1 + 0.2);
  obs::Histogram h =
      reg.histogram("test_obs.rt_hist", obs::exponential_buckets(1.0, 2.0, 4));
  h.observe(0.5);
  h.observe(3.0);
  h.observe(1e9);

  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto back = obs::metrics_snapshot_from_json(obs::metrics_json(snap));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, snap);

  EXPECT_FALSE(obs::metrics_snapshot_from_json("{\"counters\": {}}"));
  EXPECT_FALSE(obs::metrics_snapshot_from_json("not json"));
  // Counts are non-negative integers (a negative one used to wrap).
  EXPECT_FALSE(obs::metrics_snapshot_from_json(
      "{\"counters\": {\"x\": -1}, \"gauges\": {}, \"histograms\": {}}"));
}

// Non-finite guard: inf/nan have no JSON literal, so the writer emits null
// (keeping the document parseable) and the reader maps null back to 0.0.
TEST(MetricsRegistryTest, NonFiniteGaugeSurvivesExportAsNull) {
  auto& reg = obs::metrics();
  reg.reset();
  reg.gauge("test_obs.gauge_a").set(std::numeric_limits<double>::infinity());
  reg.gauge("test_obs.gauge_b").set(std::numeric_limits<double>::quiet_NaN());
  reg.gauge("test_obs.gauge_c").set(1.25);

  const std::string json = obs::metrics_json(reg.snapshot());
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_NE(json.find("\"test_obs.gauge_a\": null"), std::string::npos)
      << json;
  ASSERT_TRUE(obs::json::parse(json).has_value()) << json;

  const auto back = obs::metrics_snapshot_from_json(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->gauges.at("test_obs.gauge_a"), 0.0);
  EXPECT_EQ(back->gauges.at("test_obs.gauge_b"), 0.0);
  EXPECT_EQ(back->gauges.at("test_obs.gauge_c"), 1.25);
}

// The reader behind manifests, shards, pad plans and metrics snapshots must
// reject hostile nesting instead of recursing off the stack.
TEST(ObsJson, DeepNestingIsRejectedNotACrash) {
  EXPECT_FALSE(obs::json::parse(std::string(1'000'000, '[')));
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(obs::json::parse(nested(obs::json::kMaxDepth)));
  EXPECT_FALSE(obs::json::parse(nested(obs::json::kMaxDepth + 1)));
}

TEST(TracerTest, MaskGatesRecordingPerComponent) {
  auto& tr = obs::tracer();
  tr.disable_all();
  tr.clear();
  tr.instant(obs::Component::kTcp, "off", sim::TimePoint::origin(), 1, 1);
  EXPECT_TRUE(tr.events().empty());

  tr.enable(obs::Component::kTcp);
  EXPECT_TRUE(tr.enabled(obs::Component::kTcp));
  EXPECT_FALSE(tr.enabled(obs::Component::kH2));
  tr.instant(obs::Component::kTcp, "on", sim::TimePoint::origin(), 1, 1);
  tr.instant(obs::Component::kH2, "still off", sim::TimePoint::origin(), 1, 1);
  ASSERT_EQ(tr.events().size(), 1u);
  EXPECT_EQ(tr.events()[0].name, "on");

  tr.disable_all();
  tr.clear();
}

TEST(TracerTest, ChromeTraceJsonIsWellFormed) {
  auto& tr = obs::tracer();
  tr.disable_all();
  tr.enable(obs::Component::kWeb);
  tr.clear();
  const auto t0 = sim::TimePoint::origin();
  tr.instant(obs::Component::kWeb, "quote\"and\nnewline", t0 + sim::Duration::micros(1500),
             obs::track::kClient, 3,
             obs::TraceArgs().add("why", "beca\"use").add("n", 7).take());
  tr.complete(obs::Component::kWeb, "span", t0, t0 + sim::Duration::millis(2),
              obs::track::kClient, 3);
  tr.counter(obs::Component::kWeb, "cwnd", t0, obs::track::kClient, 3, 14600.0);

  const auto doc = obs::json::parse(obs::chrome_trace_json(tr.events()));
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 4 process_name metadata rows + the 3 recorded events.
  ASSERT_EQ(events->array.size(), 7u);
  const obs::json::Value& inst = events->array[4];
  EXPECT_EQ(inst.find("ph")->string, "i");
  EXPECT_EQ(inst.find("cat")->string, "web");
  EXPECT_DOUBLE_EQ(inst.find("ts")->number, 1500.0);  // microseconds
  EXPECT_DOUBLE_EQ(inst.find("args")->find("n")->number, 7.0);
  const obs::json::Value& span = events->array[5];
  EXPECT_EQ(span.find("ph")->string, "X");
  EXPECT_DOUBLE_EQ(span.find("dur")->number, 2000.0);
  const obs::json::Value& counter = events->array[6];
  EXPECT_EQ(counter.find("ph")->string, "C");
  EXPECT_DOUBLE_EQ(counter.find("args")->find("value")->number, 14600.0);

  tr.disable_all();
  tr.clear();
}

// ---- Harness integration ----

// Runs one standalone trial in a fresh context and returns the snapshot
// obs::metrics() holds afterwards. The fresh context keeps registrations made
// by other tests in this process out of the snapshot.
obs::MetricsSnapshot standalone_snapshot(const experiment::TrialConfig& cfg,
                                         experiment::TrialResult* result = nullptr) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  const experiment::TrialResult r = experiment::run_trial(cfg);
  if (result) *result = r;
  return obs::metrics().snapshot();
}

TEST(HarnessObsTest, TrialResultCountersMatchRegistrySnapshot) {
  experiment::TrialConfig cfg;
  cfg.seed = 7;
  cfg.attack = experiment::full_attack_config();
  experiment::TrialResult r;
  const obs::MetricsSnapshot snap = standalone_snapshot(cfg, &r);

  auto counter = [&](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(r.tcp_fast_retransmits, counter("tcp.retransmits_fast"));
  EXPECT_EQ(r.tcp_rto_retransmits, counter("tcp.retransmits_rto"));
  EXPECT_EQ(static_cast<std::uint64_t>(r.browser_reissues), counter("web.reissues"));
  EXPECT_EQ(static_cast<std::uint64_t>(r.reset_sweeps), counter("web.reset_sweeps"));
  EXPECT_EQ(r.adversary_drops, counter("attack.packets_dropped"));
  EXPECT_EQ(r.requests_spaced, counter("attack.requests_spaced"));
  EXPECT_EQ(r.link_drops, counter("net.link_drops"));
  EXPECT_EQ(r.records_observed, counter("attack.records_observed"));
  EXPECT_EQ(static_cast<std::uint64_t>(r.gets_counted), counter("attack.gets_counted"));

  // The attacked trial actually exercised the counters being compared.
  EXPECT_GT(counter("attack.packets_dropped"), 0u);
  EXPECT_GT(counter("attack.requests_spaced"), 0u);
  EXPECT_GT(counter("tcp.segments_sent"), 0u);
  EXPECT_GT(counter("h2.client.frames_sent"), 0u);
  EXPECT_GT(counter("web.requests_sent"), 0u);
}

TEST(HarnessObsTest, SameSeedTrialsProduceIdenticalSnapshots) {
  experiment::TrialConfig cfg;
  cfg.seed = 11;
  const obs::MetricsSnapshot first = standalone_snapshot(cfg);
  const obs::MetricsSnapshot second = standalone_snapshot(cfg);
  EXPECT_FALSE(first.counters.empty());
  EXPECT_EQ(first, second);
}

// The two surviving ways to read a trial's metrics agree: what a ResultSink
// sees under run_trials is what obs::metrics() holds after run_trial.
TEST(HarnessObsTest, SinkSnapshotEqualsStandaloneSnapshot) {
  struct SnapshotSink : experiment::ResultSink {
    std::vector<obs::MetricsSnapshot> snaps;
    void consume(std::size_t index, const experiment::TrialConfig&,
                 const experiment::TrialResult&,
                 const obs::Context& ctx) override {
      snaps[index] = ctx.metrics.snapshot();  // one slot per index
    }
  };
  std::vector<experiment::TrialConfig> cfgs(2);
  cfgs[0].seed = 5;
  cfgs[1].seed = 6;
  cfgs[1].attack = experiment::full_attack_config();
  SnapshotSink sink;
  sink.snaps.resize(cfgs.size());
  experiment::RunOptions opts;
  opts.jobs = 2;
  opts.sink = &sink;
  (void)experiment::run_trials(cfgs, opts);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    EXPECT_FALSE(sink.snaps[i].counters.empty());
    EXPECT_EQ(sink.snaps[i], standalone_snapshot(cfgs[i])) << "trial " << i;
  }
}

TEST(HarnessObsTest, AttackedTrialTraceCoversAllLayers) {
  auto& tr = obs::tracer();
  tr.enable_all();
  experiment::TrialConfig cfg;
  cfg.seed = 3;
  cfg.attack = experiment::full_attack_config();
  (void)experiment::run_trial(cfg);
  const std::string path = "test_obs_trial_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(tr.events(), path));
  tr.disable_all();
  tr.clear();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto doc = obs::json::parse(buf.str());
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<std::string> cats;
  for (const auto& e : events->array) {
    if (const obs::json::Value* cat = e.find("cat")) cats.insert(cat->string);
  }
  EXPECT_TRUE(cats.count("tcp"));
  EXPECT_TRUE(cats.count("h2"));
  EXPECT_TRUE(cats.count("net"));
  EXPECT_TRUE(cats.count("web"));
  EXPECT_TRUE(cats.count("attack"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace h2sim
