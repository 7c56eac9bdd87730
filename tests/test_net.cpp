#include <gtest/gtest.h>

#include <vector>

#include "net/link.hpp"
#include "net/middlebox.hpp"
#include "net/topology.hpp"
#include "obs/context.hpp"

namespace h2sim::net {
namespace {

Packet make_packet(std::size_t payload = 100, std::uint64_t id = 1) {
  Packet p;
  p.id = id;
  p.src = 1;
  p.dst = 2;
  p.payload.assign(payload, 0xaa);
  return p;
}

TEST(Link, DeliversAfterPropagationAndSerialization) {
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.delay = sim::Duration::millis(10);
  cfg.bandwidth_bps = 8e6;  // 1 MB/s
  Link link(loop, cfg, "test");

  sim::TimePoint delivered;
  link.set_sink([&](Packet&&) { delivered = loop.now(); });
  link.send(make_packet(960));  // 1000 B wire = 8000 bits = 1 ms at 8 Mbps
  loop.run();
  EXPECT_NEAR(delivered.to_millis(), 11.0, 0.01);
}

TEST(Link, SerializesBackToBackPackets) {
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.delay = sim::Duration::zero();
  cfg.bandwidth_bps = 8e6;
  Link link(loop, cfg, "test");

  std::vector<double> times;
  link.set_sink([&](Packet&&) { times.push_back(loop.now().to_millis()); });
  link.send(make_packet(960, 1));
  link.send(make_packet(960, 2));
  loop.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_NEAR(times[1] - times[0], 1.0, 0.01);  // one serialization slot apart
}

TEST(Link, PreservesFifoOrder) {
  sim::EventLoop loop;
  Link link(loop, Link::Config{}, "test");
  std::vector<std::uint64_t> ids;
  link.set_sink([&](Packet&& p) { ids.push_back(p.id); });
  for (std::uint64_t i = 1; i <= 20; ++i) link.send(make_packet(50, i));
  loop.run();
  ASSERT_EQ(ids.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(ids[i], i + 1);
}

TEST(Link, DropsWhenQueueFull) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.bandwidth_bps = 8e6;
  cfg.queue_limit_bytes = 3000;
  Link link(loop, cfg, "test");
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) link.send(make_packet(1400));
  loop.run();
  EXPECT_LT(delivered, 10);
  const std::uint64_t drops = ctx.metrics.counter_value("net.link_drops");
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(ctx.metrics.counter_value("net.link_delivered"),
            static_cast<std::uint64_t>(delivered));
  EXPECT_EQ(static_cast<std::uint64_t>(delivered) + drops, 10u);
}

TEST(Link, RandomLossRoughlyCalibrated) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  sim::EventLoop loop;
  Link::Config cfg;
  cfg.loss_rate = 0.2;
  cfg.queue_limit_bytes = 10 << 20;
  Link link(loop, cfg, "test");
  int delivered = 0;
  link.set_sink([&](Packet&&) { ++delivered; });
  const int n = 3000;
  for (int i = 0; i < n; ++i) link.send(make_packet(100));
  loop.run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.8, 0.04);
  EXPECT_EQ(ctx.metrics.counter_value("net.link_random_losses"),
            static_cast<std::uint64_t>(n - delivered));
}

TEST(Middlebox, ForwardsByDefaultAndTapsEverything) {
  sim::EventLoop loop;
  Middlebox mb(loop);
  int to_server = 0, tapped = 0;
  mb.attach([&](Packet&&) { ++to_server; }, [](Packet&&) {});
  mb.add_tap([&](const Packet&, Direction, sim::TimePoint) { ++tapped; });
  mb.on_from_client(make_packet());
  mb.on_from_client(make_packet());
  loop.run();
  EXPECT_EQ(to_server, 2);
  EXPECT_EQ(tapped, 2);
}

class DropAllPolicy : public PacketPolicy {
 public:
  Decision on_packet(const Packet&, Direction, sim::TimePoint) override {
    return Decision::drop();
  }
};

TEST(Middlebox, PolicyDropsButTapStillSees) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  sim::EventLoop loop;
  Middlebox mb(loop);
  DropAllPolicy policy;
  int forwarded = 0, tapped = 0;
  mb.attach([&](Packet&&) { ++forwarded; }, [](Packet&&) {});
  mb.add_tap([&](const Packet&, Direction, sim::TimePoint) { ++tapped; });
  mb.set_policy(&policy);
  mb.on_from_client(make_packet());
  loop.run();
  EXPECT_EQ(forwarded, 0);
  EXPECT_EQ(tapped, 1);
  EXPECT_EQ(ctx.metrics.counter_value("net.mb_dropped"), 1u);
}

class HoldPolicy : public PacketPolicy {
 public:
  Decision on_packet(const Packet&, Direction, sim::TimePoint) override {
    return Decision::hold(sim::Duration::millis(25));
  }
};

TEST(Middlebox, HoldDelaysForwarding) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  sim::EventLoop loop;
  Middlebox mb(loop);
  HoldPolicy policy;
  sim::TimePoint forwarded_at;
  mb.attach([&](Packet&&) { forwarded_at = loop.now(); }, [](Packet&&) {});
  mb.set_policy(&policy);
  mb.on_from_client(make_packet());
  loop.run();
  EXPECT_NEAR(forwarded_at.to_millis(), 25.0, 0.001);
  EXPECT_EQ(ctx.metrics.counter_value("net.mb_held"), 1u);
}

TEST(Middlebox, RateLimitPacesPackets) {
  sim::EventLoop loop;
  Middlebox mb(loop);
  mb.set_rate_limit(8e5);  // 100 KB/s
  std::vector<double> times;
  mb.attach([&](Packet&&) { times.push_back(loop.now().to_millis()); },
            [](Packet&&) {});
  // 1040-byte wire packets = 8320 bits = 10.4 ms each at 800 kbps; the first
  // rides the burst allowance.
  for (int i = 0; i < 4; ++i) mb.on_from_client(make_packet(1000));
  loop.run();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_GT(times[3] - times[0], 15.0);  // paced, not instantaneous
}

TEST(RateLimiter, TokensAccumulateWhileIdle) {
  RateLimiter limiter(8e5, 12000.0);
  // Exhaust the burst.
  EXPECT_EQ(limiter.admit(12000, sim::TimePoint::origin())->count_nanos(), 0);
  const auto wait = limiter.admit(8000, sim::TimePoint::origin());
  ASSERT_TRUE(wait.has_value());
  EXPECT_GT(wait->count_nanos(), 0);
  // After a long idle period, tokens are available again.
  const auto later = sim::TimePoint::origin() + sim::Duration::seconds(1);
  EXPECT_EQ(limiter.admit(8000, later)->count_nanos(), 0);
}

TEST(RateLimiter, DropsWhenQueueDelayExceeded) {
  RateLimiter limiter(8e5, 12000.0);
  limiter.max_queue_delay = sim::Duration::millis(50);
  // Keep admitting until the projected wait exceeds the budget.
  bool dropped = false;
  for (int i = 0; i < 100; ++i) {
    if (!limiter.admit(12000, sim::TimePoint::origin())) {
      dropped = true;
      break;
    }
  }
  EXPECT_TRUE(dropped);
}

TEST(Topology, SingleClientWiresClientToServerThroughMiddlebox) {
  sim::EventLoop loop;
  Topology topo(loop, Topology::Config{}, 1);
  int server_got = 0, client_got = 0;
  topo.set_server_sink([&](Packet&&) { ++server_got; });
  topo.set_client_sink(0, [&](Packet&&) { ++client_got; });
  topo.send_from_client(0, make_packet());
  Packet back = make_packet();
  back.src = 2;
  back.dst = 1;
  topo.send_from_server(std::move(back));
  loop.run();
  EXPECT_EQ(server_got, 1);
  EXPECT_EQ(client_got, 1);
}

TEST(Packet, WireSizeIncludesHeaders) {
  Packet p = make_packet(100);
  EXPECT_EQ(p.wire_size(), 140u);
  EXPECT_EQ(kMssBytes, 1460u);
}

}  // namespace
}  // namespace h2sim::net
