// Multi-client gateway contention (experiment/background.hpp + the N-client
// net::Topology): routing, victim isolation, and scheduler determinism under
// load. The contract under test is the tentpole invariant: adding background
// clients must never perturb the victim's RNG streams — idle backgrounds
// leave the victim's trial bit-identical, active backgrounds change it only
// through genuine wire contention.

#include <gtest/gtest.h>

#include <vector>

#include "experiment/digest.hpp"
#include "experiment/runner.hpp"
#include "net/topology.hpp"
#include "obs/context.hpp"
#include "sim/event_loop.hpp"

namespace {

using namespace h2sim;

net::Packet make_packet(net::NodeId src, net::NodeId dst, std::size_t bytes) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.payload.assign(bytes, 0xab);
  return p;
}

// --- Topology routing ---------------------------------------------------

TEST(Topology, RoutesEachClientThroughSharedUplink) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  sim::EventLoop loop;
  net::Topology topo(loop, net::Topology::Config{}, 3);
  ASSERT_EQ(topo.clients(), 3u);

  std::vector<net::NodeId> at_server;
  topo.set_server_sink([&](net::Packet&& p) { at_server.push_back(p.src); });
  for (std::size_t i = 0; i < 3; ++i) {
    topo.set_client_sink(i, [](net::Packet&&) {});
    topo.send_from_client(
        i, make_packet(net::Topology::client_node(i), net::Topology::kServerNode,
                       100));
  }
  loop.run();
  // All three clients reach the server through the one shared uplink.
  ASSERT_EQ(at_server.size(), 3u);
  // Three access-link deliveries into the gateway, then three over the uplink.
  EXPECT_EQ(ctx.metrics.counter_value("net.mb_forwarded"), 3u);
  EXPECT_EQ(ctx.metrics.counter_value("net.link_delivered"), 6u);
}

TEST(Topology, RoutesServerRepliesToTheAddressedClient) {
  sim::EventLoop loop;
  net::Topology topo(loop, net::Topology::Config{}, 3);

  std::vector<int> hits(3, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    topo.set_client_sink(i, [&hits, i](net::Packet&&) { ++hits[i]; });
  }
  topo.set_server_sink([](net::Packet&&) {});

  // Two replies to client 2, one to the victim (node 1), none to client 1.
  topo.send_from_server(make_packet(net::Topology::kServerNode,
                                    net::Topology::client_node(2), 50));
  topo.send_from_server(make_packet(net::Topology::kServerNode,
                                    net::Topology::client_node(2), 50));
  topo.send_from_server(make_packet(net::Topology::kServerNode,
                                    net::Topology::client_node(0), 50));
  loop.run();
  EXPECT_EQ(hits[0], 1);
  EXPECT_EQ(hits[1], 0);
  EXPECT_EQ(hits[2], 2);
}

TEST(Topology, SingleClientMatchesPathNodeIds) {
  // The historical single-client ids: victim 1, server 2.
  EXPECT_EQ(net::Topology::client_node(0), 1u);
  EXPECT_EQ(net::Topology::kServerNode, 2u);
  EXPECT_EQ(net::Topology::client_node(1), 3u);
  EXPECT_EQ(net::Topology::client_node(7), 9u);
}

// --- Victim isolation ----------------------------------------------------

// Idle background clients exist as full constructed stacks but emit zero
// packets, so the only admissible TrialResult change is the bg accounting
// itself. Everything the victim did — page outcome, retransmits, wire
// counters, DoM evaluation — must be bit-identical to the 0-background trial.
TEST(Load, IdleBackgroundsLeaveVictimBitIdentical) {
  for (std::uint64_t seed : {1ULL, 7ULL, 19ULL}) {
    experiment::TrialConfig solo;
    solo.seed = seed;
    solo.attack = experiment::full_attack_config();
    const experiment::TrialResult base = experiment::run_trial(solo);

    experiment::TrialConfig crowded = solo;
    crowded.load.background_clients = 8;
    crowded.load.mix = {experiment::BackgroundWorkload::kIdle};
    experiment::TrialResult r = experiment::run_trial(crowded);

    EXPECT_EQ(r.background_clients, 8);
    EXPECT_EQ(r.bg_requests_sent, 0u);
    EXPECT_EQ(r.bg_bytes_received, 0u);

    // Zero the bg accounting; every remaining field must match, digest
    // included (the digest skips bg fields when background_clients == 0).
    r.background_clients = 0;
    r.bg_connections = 0;
    EXPECT_TRUE(base == r) << "seed " << seed;
    EXPECT_EQ(experiment::result_digest(base), experiment::result_digest(r))
        << "seed " << seed;
  }
}

// Changing how many *idle* backgrounds ride along must not move the victim
// digest either: 2 idle vs 12 idle differ only in the background_clients
// count, never in any victim-visible field.
TEST(Load, VictimDigestInvariantAcrossIdleBackgroundCounts) {
  auto run_zeroed = [](int n) {
    experiment::TrialConfig cfg;
    cfg.seed = 5;
    cfg.load.background_clients = n;
    cfg.load.mix = {experiment::BackgroundWorkload::kIdle};
    experiment::TrialResult r = experiment::run_trial(cfg);
    r.background_clients = 0;
    r.bg_connections = 0;
    return experiment::result_digest(r);
  };
  const std::uint64_t d2 = run_zeroed(2);
  const std::uint64_t d12 = run_zeroed(12);
  EXPECT_EQ(d2, d12);
}

// --- Active contention ---------------------------------------------------

TEST(Load, BackgroundWorkloadsActuallyGenerateTraffic) {
  experiment::TrialConfig cfg;
  cfg.seed = 3;
  cfg.load.background_clients = 3;  // one each of bulk / poll / slow-drip
  cfg.sim_limit = sim::Duration::seconds(20);
  const experiment::TrialResult r = experiment::run_trial(cfg);

  EXPECT_EQ(r.background_clients, 3);
  EXPECT_EQ(r.bg_connections, 3u);
  EXPECT_GT(r.bg_requests_sent, 3u);
  EXPECT_GT(r.bg_bytes_received, 0u);
  EXPECT_GT(r.bg_streams_completed, 0u);
  // Contention is real but not fatal: the victim's page still completes.
  EXPECT_TRUE(r.page_complete) << r.failure_reason;
}

// The wheel's determinism contract under contention: 32 seeds of an
// 8-background-client trial must produce field-for-field identical
// TrialResults whether the sweep runs sequentially or across worker threads.
TEST(Load, SequentialVsParallel32SeedsUnderContention) {
  std::vector<experiment::TrialConfig> cfgs(32);
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    cfgs[i].seed = i + 1;
    cfgs[i].load.background_clients = 8;
    // Bounded workload so the suite stays fast: the property under test is
    // scheduler determinism, not workload duration.
    cfgs[i].sim_limit = sim::Duration::seconds(8);
  }

  experiment::RunOptions seq;
  seq.jobs = 1;
  const auto sequential = experiment::run_trials(cfgs, seq);

  experiment::RunOptions par;
  par.jobs = 4;
  const auto parallel = experiment::run_trials(cfgs, par);

  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_TRUE(sequential[i] == parallel[i]) << "trial " << i;
    EXPECT_EQ(experiment::result_digest(sequential[i]),
              experiment::result_digest(parallel[i]));
  }
}

}  // namespace
