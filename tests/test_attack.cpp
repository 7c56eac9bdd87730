#include <gtest/gtest.h>

#include <vector>

#include "attack/controller.hpp"
#include "attack/monitor.hpp"
#include "attack/pipeline.hpp"
#include "tls/record.hpp"

namespace h2sim::attack {
namespace {

net::Packet tcp_packet(std::uint32_t seq, std::vector<std::uint8_t> payload,
                       bool c2s = true, std::uint64_t id = 0) {
  static std::uint64_t next_id = 1000;
  net::Packet p;
  p.id = id != 0 ? id : next_id++;
  p.src = c2s ? 1 : 2;
  p.dst = c2s ? 2 : 1;
  p.tcp.src_port = c2s ? 50000 : 443;
  p.tcp.dst_port = c2s ? 443 : 50000;
  p.tcp.seq = seq;
  p.tcp.flags = net::tcpflag::kAck;
  p.payload = std::move(payload);
  return p;
}

net::Packet syn_packet(std::uint32_t seq, bool c2s = true) {
  net::Packet p = tcp_packet(seq, {}, c2s);
  p.tcp.flags = net::tcpflag::kSyn;
  return p;
}

std::vector<std::uint8_t> record_bytes(tls::ContentType type, std::size_t body_len) {
  tls::RecordHeader h;
  h.type = type;
  std::vector<std::uint8_t> body(body_len, 0xcc);
  h.length = static_cast<std::uint16_t>(body_len);
  return tls::serialize_record(h, body);
}

TEST(TrafficMonitor, CountsGetRecordsBySize) {
  TrafficMonitor mon;
  std::vector<int> gets;
  mon.on_get = [&](int idx, sim::TimePoint) { gets.push_back(idx); };

  mon.observe(syn_packet(100), net::Direction::kClientToServer,
              sim::TimePoint::origin());

  // A WINDOW_UPDATE-sized record (29 B body): not a GET.
  auto wu = record_bytes(tls::ContentType::kApplicationData, 29);
  std::uint32_t seq = 101;
  mon.observe(tcp_packet(seq, wu), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  seq += static_cast<std::uint32_t>(wu.size());
  EXPECT_TRUE(gets.empty());

  // A request-sized record (120 B body): counted.
  auto get_rec = record_bytes(tls::ContentType::kApplicationData, 120);
  mon.observe(tcp_packet(seq, get_rec), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  seq += static_cast<std::uint32_t>(get_rec.size());
  ASSERT_EQ(gets.size(), 1u);
  EXPECT_EQ(gets[0], 1);

  mon.observe(tcp_packet(seq, get_rec), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  EXPECT_EQ(mon.get_count(), 2);
}

TEST(TrafficMonitor, ReassemblesOutOfOrderBeforeParsing) {
  TrafficMonitor mon;
  mon.observe(syn_packet(100), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  auto rec = record_bytes(tls::ContentType::kApplicationData, 200);
  // Split the record across two packets, deliver in reverse order.
  const std::size_t half = rec.size() / 2;
  std::vector<std::uint8_t> part1(rec.begin(), rec.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<std::uint8_t> part2(rec.begin() + static_cast<std::ptrdiff_t>(half), rec.end());
  mon.observe(tcp_packet(101 + static_cast<std::uint32_t>(half), part2),
              net::Direction::kClientToServer, sim::TimePoint::origin());
  EXPECT_EQ(mon.get_count(), 0);
  mon.observe(tcp_packet(101, part1), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  EXPECT_EQ(mon.get_count(), 1);
}

TEST(TrafficMonitor, DeduplicatesRetransmissions) {
  TrafficMonitor mon;
  mon.observe(syn_packet(100), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  auto rec = record_bytes(tls::ContentType::kApplicationData, 150);
  auto p = tcp_packet(101, rec);
  mon.observe(p, net::Direction::kClientToServer, sim::TimePoint::origin());
  mon.observe(p, net::Direction::kClientToServer, sim::TimePoint::origin());
  EXPECT_EQ(mon.get_count(), 1);
  // The duplicate was classified as a retransmission.
  EXPECT_TRUE(mon.packet_is_c2s_retransmission(p.id));
}

TEST(TrafficMonitor, RequestPacketClassification) {
  TrafficMonitor mon;
  mon.observe(syn_packet(100), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  auto get_rec = record_bytes(tls::ContentType::kApplicationData, 120);
  auto p = tcp_packet(101, get_rec);
  mon.observe(p, net::Direction::kClientToServer, sim::TimePoint::origin());
  EXPECT_TRUE(mon.packet_is_request(p.id));

  auto wu = record_bytes(tls::ContentType::kApplicationData, 29);
  auto q = tcp_packet(101 + static_cast<std::uint32_t>(get_rec.size()), wu);
  mon.observe(q, net::Direction::kClientToServer, sim::TimePoint::origin());
  EXPECT_FALSE(mon.packet_is_request(q.id));
}

TEST(TrafficMonitor, TraceRecordsBothDirections) {
  TrafficMonitor mon;
  mon.observe(syn_packet(100), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  mon.observe(syn_packet(500, false), net::Direction::kServerToClient,
              sim::TimePoint::origin());
  auto rec = record_bytes(tls::ContentType::kApplicationData, 300);
  mon.observe(tcp_packet(101, rec), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  mon.observe(tcp_packet(501, rec, false), net::Direction::kServerToClient,
              sim::TimePoint::origin());
  EXPECT_EQ(mon.trace().records().size(), 2u);
  EXPECT_EQ(mon.trace().count_appdata(net::Direction::kServerToClient), 1u);
}

TEST(TrafficMonitor, DrainsBufferedSegmentsAcrossTheSequenceWrap) {
  // ISN just below 2^32: record B straddles the wrap and C starts past it.
  // Delivered B, C, A, all three records must parse once A fills the hole.
  TrafficMonitor mon;
  const std::uint32_t isn = 0xFFFFFEFFu;
  mon.observe(syn_packet(isn), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  const auto rec = record_bytes(tls::ContentType::kApplicationData, 200);
  const auto len = static_cast<std::uint32_t>(rec.size());
  const std::uint32_t a = isn + 1, b = a + len, c = b + len;
  ASSERT_LT(c, a);  // C's sequence number has wrapped
  mon.observe(tcp_packet(b, rec), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  mon.observe(tcp_packet(c, rec), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  EXPECT_EQ(mon.get_count(), 0);
  mon.observe(tcp_packet(a, rec), net::Direction::kClientToServer,
              sim::TimePoint::origin());
  EXPECT_EQ(mon.get_count(), 3);
}

// --- Controller ---

TEST(NetworkController, SpacesRequestArrivals) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  sim::EventLoop loop;
  NetworkController ctl(loop, sim::Rng(1));
  ctl.set_request_spacing(sim::Duration::millis(50));

  // Without a monitor, classification falls back to payload size.
  auto p1 = tcp_packet(1, std::vector<std::uint8_t>(200, 1));
  auto d1 = ctl.on_packet(p1, net::Direction::kClientToServer, loop.now());
  EXPECT_EQ(d1.action, net::Decision::Action::kForward);

  auto p2 = tcp_packet(300, std::vector<std::uint8_t>(200, 1));
  auto d2 = ctl.on_packet(p2, net::Direction::kClientToServer, loop.now());
  EXPECT_EQ(d2.action, net::Decision::Action::kHold);
  EXPECT_NEAR(d2.hold_for.to_millis(), 50.0, 0.001);

  auto p3 = tcp_packet(600, std::vector<std::uint8_t>(200, 1));
  auto d3 = ctl.on_packet(p3, net::Direction::kClientToServer, loop.now());
  EXPECT_NEAR(d3.hold_for.to_millis(), 100.0, 0.001);
  EXPECT_EQ(ctx.metrics.counter_value("attack.requests_spaced"), 2u);
}

TEST(NetworkController, SmallPacketsPassUnheld) {
  sim::EventLoop loop;
  NetworkController ctl(loop, sim::Rng(1));
  ctl.set_request_spacing(sim::Duration::millis(50));
  ctl.on_packet(tcp_packet(1, std::vector<std::uint8_t>(200, 1)),
                net::Direction::kClientToServer, loop.now());
  // A pure-ACK-sized packet is never spaced.
  auto ack = tcp_packet(300, std::vector<std::uint8_t>(30, 1));
  auto d = ctl.on_packet(ack, net::Direction::kClientToServer, loop.now());
  EXPECT_EQ(d.action, net::Decision::Action::kForward);
}

TEST(NetworkController, DropWindowDropsPayloadOnly) {
  sim::EventLoop loop;
  NetworkController ctl(loop, sim::Rng(1));
  ctl.start_drop_window(1.0, sim::Duration::seconds(1));  // drop everything
  auto data = tcp_packet(1, std::vector<std::uint8_t>(500, 1), false);
  EXPECT_EQ(ctl.on_packet(data, net::Direction::kServerToClient, loop.now()).action,
            net::Decision::Action::kDrop);
  auto ack = tcp_packet(1, {}, false);
  EXPECT_EQ(ctl.on_packet(ack, net::Direction::kServerToClient, loop.now()).action,
            net::Decision::Action::kForward);
  // Client->server traffic unaffected.
  auto c2s = tcp_packet(1, std::vector<std::uint8_t>(500, 1));
  EXPECT_EQ(ctl.on_packet(c2s, net::Direction::kClientToServer, loop.now()).action,
            net::Decision::Action::kForward);
}

TEST(NetworkController, DropWindowExpires) {
  sim::EventLoop loop;
  NetworkController ctl(loop, sim::Rng(1));
  ctl.start_drop_window(1.0, sim::Duration::millis(100));
  EXPECT_TRUE(ctl.dropping());
  loop.schedule_after(sim::Duration::millis(200), [] {});
  loop.run();
  EXPECT_FALSE(ctl.dropping());
  auto data = tcp_packet(1, std::vector<std::uint8_t>(500, 1), false);
  EXPECT_EQ(ctl.on_packet(data, net::Direction::kServerToClient, loop.now()).action,
            net::Decision::Action::kForward);
}

TEST(NetworkController, SuppressesRetransmissionsOfHeldRequests) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  sim::EventLoop loop;
  TrafficMonitor mon;
  NetworkController ctl(loop, sim::Rng(1));
  ctl.set_monitor(&mon);
  ctl.set_request_spacing(sim::Duration::millis(50));

  mon.observe(syn_packet(100), net::Direction::kClientToServer, loop.now());
  auto rec = record_bytes(tls::ContentType::kApplicationData, 150);
  auto p1 = tcp_packet(101, rec);
  mon.observe(p1, net::Direction::kClientToServer, loop.now());
  ctl.on_packet(p1, net::Direction::kClientToServer, loop.now());

  auto p2 = tcp_packet(101 + static_cast<std::uint32_t>(rec.size()), rec);
  mon.observe(p2, net::Direction::kClientToServer, loop.now());
  auto d2 = ctl.on_packet(p2, net::Direction::kClientToServer, loop.now());
  EXPECT_EQ(d2.action, net::Decision::Action::kHold);  // held behind p1's slot

  // A TCP retransmission of p1 while p2 is still held: dropped.
  auto p1_rtx = tcp_packet(101, rec);
  mon.observe(p1_rtx, net::Direction::kClientToServer, loop.now());
  auto d3 = ctl.on_packet(p1_rtx, net::Direction::kClientToServer, loop.now());
  EXPECT_EQ(d3.action, net::Decision::Action::kDrop);
  EXPECT_EQ(ctx.metrics.counter_value("attack.retransmissions_suppressed"), 1u);
}

// --- Pipeline phase machine ---

TEST(AttackPipeline, PhasesAdvanceOnTriggerGet) {
  sim::EventLoop loop;
  net::Middlebox mb(loop);
  mb.attach([](net::Packet&&) {}, [](net::Packet&&) {});

  AttackConfig cfg;
  cfg.trigger_get_index = 2;
  cfg.drop_duration = sim::Duration::millis(100);
  AttackPipeline pipeline(loop, mb, cfg, sim::Rng(5));
  EXPECT_EQ(pipeline.phase(), AttackPipeline::Phase::kJitter);

  mb.on_from_client(syn_packet(100));
  auto rec = record_bytes(tls::ContentType::kApplicationData, 150);
  mb.on_from_client(tcp_packet(101, rec));
  loop.run();
  EXPECT_EQ(pipeline.phase(), AttackPipeline::Phase::kJitter);

  mb.on_from_client(tcp_packet(101 + static_cast<std::uint32_t>(rec.size()), rec));
  loop.run(sim::TimePoint::origin() + sim::Duration::millis(10));
  EXPECT_EQ(pipeline.phase(), AttackPipeline::Phase::kDisrupt);
  EXPECT_TRUE(pipeline.controller().dropping());

  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(10));
  EXPECT_EQ(pipeline.phase(), AttackPipeline::Phase::kSerialize);
  EXPECT_FALSE(pipeline.controller().dropping());
  EXPECT_EQ(pipeline.controller().request_spacing().to_millis(),
            cfg.jitter_phase2.to_millis());
}

TEST(AttackPipeline, DisabledAdversaryOnlyObserves) {
  sim::EventLoop loop;
  net::Middlebox mb(loop);
  int forwarded = 0;
  mb.attach([&](net::Packet&&) { ++forwarded; }, [](net::Packet&&) {});

  AttackConfig cfg;
  cfg.enabled = false;
  AttackPipeline pipeline(loop, mb, cfg, sim::Rng(5));
  EXPECT_EQ(pipeline.phase(), AttackPipeline::Phase::kIdle);

  mb.on_from_client(syn_packet(100));
  auto rec = record_bytes(tls::ContentType::kApplicationData, 150);
  mb.on_from_client(tcp_packet(101, rec));
  loop.run();
  EXPECT_EQ(forwarded, 2);                       // nothing held or dropped
  EXPECT_EQ(pipeline.monitor().get_count(), 1);  // but everything observed
}

}  // namespace
}  // namespace h2sim::attack
