#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "obs/context.hpp"
#include "sim/event_loop.hpp"
#include "tcp/tcp_connection.hpp"
#include "tcp/tcp_stack.hpp"

namespace h2sim::tcp {
namespace {

/// Two TCP endpoints joined by a controllable wire: fixed one-way delay plus
/// per-packet drop/hold hooks for loss and reordering experiments. Counts
/// come from the fixture's own registry, which sums over both endpoints.
class TcpPair : public ::testing::Test {
 protected:
  void SetUp() override {
    client_ = std::make_unique<TcpConnection>(
        loop_, cfg_, 1, 1000, 2, 443,
        [this](net::Packet&& p) { transmit(std::move(p), /*to_server=*/true); },
        client_iss_);
    server_ = std::make_unique<TcpConnection>(
        loop_, cfg_, 2, 443, 1, 1000,
        [this](net::Packet&& p) { transmit(std::move(p), /*to_server=*/false); },
        server_iss_);
  }

  void transmit(net::Packet&& p, bool to_server) {
    if (filter_ && !filter_(p, to_server)) return;  // dropped by the test
    loop_.schedule_after(delay_, [this, p = std::move(p), to_server]() mutable {
      (to_server ? *server_ : *client_).handle_segment(p);
    });
  }

  void run_for(double seconds) {
    loop_.run(loop_.now() + sim::Duration::seconds_f(seconds));
  }

  void establish() {
    client_->connect();
    run_for(5);
    ASSERT_TRUE(client_->established());
    ASSERT_TRUE(server_->established());
  }

  std::vector<std::uint8_t> bytes(std::size_t n, std::uint8_t seed = 7) {
    std::vector<std::uint8_t> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i);
    return v;
  }

  /// Delivers `p` `extra` later than the wire would (reordering).
  void deliver_late(const net::Packet& p, bool to_server, sim::Duration extra) {
    loop_.schedule_after(delay_ + extra, [this, p, to_server] {
      (to_server ? *server_ : *client_).handle_segment(p);
    });
  }

  std::uint64_t count(const std::string& name) const {
    return ctx_.metrics.counter_value(name);
  }

  // Installed before the endpoints exist: their counters bind at construction.
  obs::Context ctx_;
  obs::ScopedContext scope_{ctx_};
  sim::EventLoop loop_;
  TcpConfig cfg_;
  std::uint32_t client_iss_ = 1000;
  std::uint32_t server_iss_ = 5000;
  sim::Duration delay_ = sim::Duration::millis(5);
  std::function<bool(const net::Packet&, bool to_server)> filter_;
  std::unique_ptr<TcpConnection> client_;
  std::unique_ptr<TcpConnection> server_;
};

TEST_F(TcpPair, ThreeWayHandshake) {
  establish();
  EXPECT_EQ(client_->state(), TcpConnection::State::kEstablished);
  EXPECT_EQ(server_->state(), TcpConnection::State::kEstablished);
}

TEST_F(TcpPair, ConnectedCallbacksFire) {
  bool client_cb = false, server_cb = false;
  TcpConnection::Callbacks ccb;
  ccb.on_connected = [&] { client_cb = true; };
  client_->set_callbacks(std::move(ccb));
  TcpConnection::Callbacks scb;
  scb.on_connected = [&] { server_cb = true; };
  server_->set_callbacks(std::move(scb));
  establish();
  EXPECT_TRUE(client_cb);
  EXPECT_TRUE(server_cb);
}

TEST_F(TcpPair, DeliversBytesInOrder) {
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  const auto payload = bytes(10000);
  client_->send(payload);
  run_for(5);
  EXPECT_EQ(received, payload);
}

TEST_F(TcpPair, SegmentsRespectMss) {
  std::size_t received = 0;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) { received += b.size(); };
  server_->set_callbacks(std::move(scb));
  establish();
  std::vector<std::size_t> sizes;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty()) sizes.push_back(p.payload.size());
    return true;
  };
  client_->send(bytes(5000));
  // 5000 bytes -> 4 segments (3x1460 + 620).
  run_for(5);
  EXPECT_EQ(received, 5000u);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{1460, 1460, 1460, 620}));
}

TEST_F(TcpPair, LostDataSegmentRecoversViaFastRetransmit) {
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  int data_packets = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty()) {
      ++data_packets;
      if (data_packets == 2) return false;  // drop the 2nd data segment once
    }
    return true;
  };
  const auto payload = bytes(20000);
  client_->send(payload);
  run_for(10);
  EXPECT_EQ(received, payload);
  // Only the client sends data, so every retransmission is the client's and
  // every out-of-order segment the server's.
  EXPECT_GE(count("tcp.retransmits_fast"), 1u);
  EXPECT_EQ(count("tcp.retransmits_rto"), 0u);  // no timeout needed
  EXPECT_GE(count("tcp.out_of_order_segments"), 1u);
}

TEST_F(TcpPair, LoneLossRecoversViaRto) {
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  bool dropped = false;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty() && !dropped) {
      dropped = true;  // drop the only data segment: no dupacks possible
      return false;
    }
    return true;
  };
  client_->send(bytes(500));
  run_for(10);
  EXPECT_EQ(received.size(), 500u);
  EXPECT_GE(count("tcp.retransmits_rto"), 1u);  // the client is the only sender
}

TEST_F(TcpPair, CwndGrowsInSlowStart) {
  establish();
  const std::size_t initial = client_->cwnd();
  TcpConnection::Callbacks scb;
  server_->set_callbacks(std::move(scb));
  client_->send(bytes(200000));
  run_for(10);
  EXPECT_GT(client_->cwnd(), initial);
}

TEST_F(TcpPair, GracefulCloseBothDirections) {
  bool server_saw_eof = false, client_saw_eof = false;
  TcpConnection::Callbacks scb;
  scb.on_remote_close = [&] {
    server_saw_eof = true;
    server_->close();
  };
  server_->set_callbacks(std::move(scb));
  TcpConnection::Callbacks ccb;
  ccb.on_remote_close = [&] { client_saw_eof = true; };
  client_->set_callbacks(std::move(ccb));
  establish();

  client_->send(bytes(1000));
  client_->close();
  run_for(10);
  EXPECT_TRUE(server_saw_eof);
  EXPECT_TRUE(client_saw_eof);
  EXPECT_TRUE(client_->fully_closed());
  EXPECT_TRUE(server_->fully_closed());
}

TEST_F(TcpPair, FinRetransmittedWhenLost) {
  bool fin_dropped = false;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && p.tcp.fin() && !fin_dropped) {
      fin_dropped = true;
      return false;
    }
    return true;
  };
  bool server_saw_eof = false;
  TcpConnection::Callbacks scb;
  scb.on_remote_close = [&] { server_saw_eof = true; };
  server_->set_callbacks(std::move(scb));
  establish();
  client_->close();
  run_for(20);
  EXPECT_TRUE(fin_dropped);
  EXPECT_TRUE(server_saw_eof);
}

TEST_F(TcpPair, RstAbortsPeer) {
  bool aborted = false;
  std::string reason;
  TcpConnection::Callbacks scb;
  scb.on_aborted = [&](std::string_view r) {
    aborted = true;
    reason = std::string(r);
  };
  server_->set_callbacks(std::move(scb));
  establish();
  client_->abort("test");
  run_for(2);
  EXPECT_TRUE(aborted);
  EXPECT_EQ(reason, "rst-received");
  EXPECT_TRUE(client_->aborted());
  EXPECT_TRUE(server_->aborted());
}

TEST_F(TcpPair, TotalBlackoutBreaksConnection) {
  bool aborted = false;
  TcpConnection::Callbacks ccb;
  ccb.on_aborted = [&](std::string_view) { aborted = true; };
  client_->set_callbacks(std::move(ccb));
  establish();
  filter_ = [](const net::Packet&, bool) { return false; };  // cut the wire
  client_->send(bytes(1000));
  run_for(120);
  EXPECT_TRUE(aborted);  // stuck-timeout or retry budget, either way broken
}

TEST_F(TcpPair, SynRetransmittedWhenLost) {
  int syns = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && p.tcp.syn()) {
      ++syns;
      if (syns == 1) return false;  // drop the first SYN
    }
    return true;
  };
  establish();
  EXPECT_GE(syns, 2);
}

TEST_F(TcpPair, ReorderedSegmentsDeliverInOrder) {
  // Hold the first data segment longer than the second (reordering).
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  int n = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty() && ++n == 1) {
      deliver_late(p, to_server, sim::Duration::millis(30));
      return false;
    }
    return true;
  };
  const auto payload = bytes(4000);
  client_->send(payload);
  run_for(10);
  EXPECT_EQ(received, payload);
}

TEST_F(TcpPair, DupAcksCountedAtSender) {
  establish();
  int data_packets = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server && !p.payload.empty()) {
      ++data_packets;
      if (data_packets == 1) return false;  // hole at the front
    }
    return true;
  };
  client_->send(bytes(30000));
  run_for(10);
  // The server has nothing in flight, so every duplicate ACK is the client's.
  EXPECT_GE(count("tcp.dup_acks_received"), 3u);
}

// A scripted loss pattern that walks the sender's record list through its
// rare shapes. Ten 1000-byte writes become ten records; the 2nd, 3rd and 5th
// first transmissions are lost. The fast retransmit from 1000 sends a full
// MSS and so covers only part of the 3rd record: the server ACKs 2460, a
// partial ACK that retires the 2nd record and leaves the 3rd as a partially
// acked survivor. NewReno then retransmits from 2460, where no record
// starts, so that record is inserted behind the survivor, mid-list; the
// next partial ACK (4000) must retire it with the records around it. Each
// row is the client's state after one ACK, recorded from the map-based list
// this one replaced: [ack offset, tracked segments, srtt ns, rto ns].
TEST_F(TcpPair, PartialAckAndMidListRetransmitKeepRecordsAndRtt) {
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  std::vector<std::array<std::int64_t, 4>> rows;
  int data = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (to_server) {
      if (p.payload.empty() || p.is_retransmission) return true;
      ++data;
      return data != 2 && data != 3 && data != 5;
    }
    loop_.schedule_after(delay_, [this, p, &rows] {
      client_->handle_segment(p);
      rows.push_back({static_cast<std::int64_t>(p.tcp.ack - client_iss_ - 1),
                      static_cast<std::int64_t>(client_->tracked_segments()),
                      client_->srtt().count_nanos(),
                      client_->current_rto().count_nanos()});
    });
    return false;
  };
  const auto payload = bytes(10000);
  for (std::size_t i = 0; i < payload.size(); i += 1000) {
    client_->send(std::span(payload).subspan(i, 1000));
  }
  run_for(5);
  // Then two clean records over a slower path: fresh RTT samples move srtt.
  delay_ = sim::Duration::millis(9);
  client_->send(std::span(payload).first(1000));
  client_->send(std::span(payload).first(1000));
  run_for(5);
  EXPECT_EQ(received.size(), payload.size() + 2000);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), received.begin()));
  // The server sends no data: all three retransmissions are the client's.
  EXPECT_EQ(count("tcp.retransmits_fast"), 3u);
  EXPECT_EQ(count("tcp.retransmits_rto"), 0u);
  constexpr std::int64_t kMs = 1'000'000;
  const std::vector<std::array<std::int64_t, 4>> expected = {
      {1000, 9, 10 * kMs, 200 * kMs},  // 6 dup ACKs follow: the 3rd one
      {1000, 9, 10 * kMs, 200 * kMs},  // fast-retransmits from 1000
      {1000, 9, 10 * kMs, 200 * kMs},
      {1000, 9, 10 * kMs, 200 * kMs},
      {1000, 9, 10 * kMs, 200 * kMs},
      {1000, 9, 10 * kMs, 200 * kMs},
      {1000, 9, 10 * kMs, 200 * kMs},
      {2460, 9, 10 * kMs, 200 * kMs},  // partial ACK: survivor + mid-list insert
      {4000, 6, 10 * kMs, 200 * kMs},  // retires the inserted record in order
      {10000, 0, 10 * kMs, 200 * kMs},  // Karn: no sample off a retransmission
      {11000, 1, 11 * kMs, 200 * kMs},
      {12000, 0, 11'875'000, 200 * kMs},
  };
  EXPECT_EQ(rows, expected);
}

// --- Stack-level tests ---

TEST(TcpStack, ConnectAndAcceptThroughPath) {
  sim::EventLoop loop;
  sim::Rng rng(3);
  net::Topology topo(loop, net::Topology::Config{}, 1);
  TcpStack server(loop, rng.split(), net::Topology::kServerNode,
                  [&](net::Packet&& p) { topo.send_from_server(std::move(p)); });
  TcpStack client(loop, rng.split(), net::Topology::client_node(0),
                  [&](net::Packet&& p) { topo.send_from_client(0, std::move(p)); });
  topo.set_server_sink([&](net::Packet&& p) { server.deliver(std::move(p)); });
  topo.set_client_sink(0, [&](net::Packet&& p) { client.deliver(std::move(p)); });

  std::vector<std::uint8_t> got;
  server.listen(443, [&](TcpConnection& c) {
    TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::span<const std::uint8_t> b) {
      got.insert(got.end(), b.begin(), b.end());
    };
    c.set_callbacks(std::move(cbs));
  });

  TcpConnection& conn = client.connect(net::Topology::kServerNode, 443);
  TcpConnection::Callbacks ccb;
  ccb.on_connected = [&] {
    const std::uint8_t hello[5] = {1, 2, 3, 4, 5};
    conn.send(hello);
  };
  conn.set_callbacks(std::move(ccb));
  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(5));
  EXPECT_EQ(got.size(), 5u);
}

TEST(TcpStack, SynToClosedPortIgnored) {
  sim::EventLoop loop;
  sim::Rng rng(3);
  net::Topology topo(loop, net::Topology::Config{}, 1);
  TcpStack server(loop, rng.split(), net::Topology::kServerNode,
                  [&](net::Packet&& p) { topo.send_from_server(std::move(p)); });
  TcpStack client(loop, rng.split(), net::Topology::client_node(0),
                  [&](net::Packet&& p) { topo.send_from_client(0, std::move(p)); });
  topo.set_server_sink([&](net::Packet&& p) { server.deliver(std::move(p)); });
  topo.set_client_sink(0, [&](net::Packet&& p) { client.deliver(std::move(p)); });

  TcpConnection& conn = client.connect(net::Topology::kServerNode, 999);
  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(3));
  EXPECT_FALSE(conn.established());
}

// --- Sequence-space bookkeeping across the 2^32 wrap ---

/// Both ends start 4 KiB below the wrap: the third data segment straddles it
/// and nearly all traffic is post-wrap.
class TcpPairAtWrap : public TcpPair {
 protected:
  TcpPairAtWrap() { client_iss_ = server_iss_ = 0xFFFFF000u; }
};

TEST_F(TcpPairAtWrap, BulkTransferThroughLossAndReorderingIsExact) {
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  // Deterministic impairment of the data direction: every 61st data segment
  // is lost, every 17th arrives 4 ms late; every 29th ACK is lost.
  int data = 0, acks = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    if (!to_server) return ++acks % 29 != 0;
    if (p.payload.empty()) return true;
    ++data;
    if (data % 61 == 0) return false;
    if (data % 17 == 0) {
      deliver_late(p, to_server, sim::Duration::millis(4));
      return false;
    }
    return true;
  };
  std::vector<std::uint8_t> payload(2 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  client_->send(payload);
  run_for(120);
  EXPECT_EQ(received.size(), payload.size());
  EXPECT_TRUE(received == payload);
  EXPECT_GE(count("tcp.retransmits_fast"), 1u);
  EXPECT_GE(count("tcp.out_of_order_segments"), 1u);
  EXPECT_EQ(client_->tracked_segments(), 0u);
  EXPECT_EQ(client_->bytes_in_flight(), 0u);
}

TEST_F(TcpPairAtWrap, HoleBeforeTheWrapDrainsInOnePass) {
  // Losing the 2nd data segment leaves the 3rd (which straddles the wrap) and
  // the later, post-wrap ones buffered together; filling the hole must
  // deliver all of them, so one retransmission repairs the stream.
  std::vector<std::uint8_t> received;
  TcpConnection::Callbacks scb;
  scb.on_data = [&](std::span<const std::uint8_t> b) {
    received.insert(received.end(), b.begin(), b.end());
  };
  server_->set_callbacks(std::move(scb));
  establish();

  int data_packets = 0;
  filter_ = [&](const net::Packet& p, bool to_server) {
    return !(to_server && !p.payload.empty() && ++data_packets == 2);
  };
  const auto payload = bytes(20000);
  client_->send(payload);
  run_for(10);
  EXPECT_EQ(received, payload);
  EXPECT_GE(count("tcp.out_of_order_segments"), 2u);
  EXPECT_EQ(count("tcp.retransmits_fast") + count("tcp.retransmits_rto"), 1u);
  EXPECT_EQ(client_->tracked_segments(), 0u);
}

TEST(TcpWrap, RetransmitFromMidRecordRetiresOnCoveringAckWithoutRttSample) {
  sim::EventLoop loop;
  std::vector<net::Packet> sent;
  const std::uint32_t iss = 0xFFFFF000u;
  const std::uint32_t peer_iss = 0x7000u;
  TcpConnection conn(loop, TcpConfig{}, 1, 1000, 2, 443,
                     [&](net::Packet&& p) { sent.push_back(std::move(p)); }, iss);
  auto from_peer = [&](std::uint8_t flags, std::uint32_t ack) {
    net::Packet p;
    p.src = 2;
    p.dst = 1;
    p.tcp.src_port = 443;
    p.tcp.dst_port = 1000;
    p.tcp.seq = peer_iss + 1;
    p.tcp.ack = ack;
    p.tcp.flags = flags;
    p.tcp.wnd = 65535;
    conn.handle_segment(p);
  };
  auto advance = [&](int ms) {
    loop.run(loop.now() + sim::Duration::millis(ms));
  };

  conn.connect();
  from_peer(net::tcpflag::kSyn | net::tcpflag::kAck, iss + 1);
  ASSERT_TRUE(conn.established());
  const std::uint32_t s0 = iss + 1;
  const auto mss = static_cast<std::uint32_t>(net::kMssBytes);
  conn.send(std::vector<std::uint8_t>(3 * net::kMssBytes, 0xab));  // third one wraps
  ASSERT_EQ(conn.tracked_segments(), 3u);

  // Partial ACK inside the first record: it advances snd_una but the record
  // stays until its end is acknowledged.
  advance(10);
  from_peer(net::tcpflag::kAck, s0 + 500);
  EXPECT_EQ(conn.tracked_segments(), 3u);
  EXPECT_EQ(conn.current_rto(), kInitialRto);  // no RTT sample

  // The RTO retransmits from s0+500, where no record starts: one is added.
  advance(1100);
  ASSERT_FALSE(sent.empty());
  EXPECT_EQ(sent.back().tcp.seq, s0 + 500);
  EXPECT_TRUE(sent.back().is_retransmission);
  EXPECT_EQ(conn.tracked_segments(), 4u);

  // The ACK covering the retransmission retires it and the first record;
  // Karn's rule keeps the retransmitted range from yielding an RTT sample
  // (its ~120 ms would set the RTO near 360 ms), so the RTO resets to initial.
  advance(10);
  from_peer(net::tcpflag::kAck, s0 + 500 + mss);
  EXPECT_EQ(conn.tracked_segments(), 2u);
  EXPECT_EQ(conn.current_rto(), kInitialRto);

  from_peer(net::tcpflag::kAck, s0 + 3 * mss);
  EXPECT_EQ(conn.tracked_segments(), 0u);
  EXPECT_EQ(conn.bytes_in_flight(), 0u);
}

TEST(SeqArith, WrapSafety) {
  EXPECT_TRUE(seq_lt(0xfffffff0u, 0x10u));
  EXPECT_TRUE(seq_gt(0x10u, 0xfffffff0u));
  EXPECT_TRUE(seq_le(5u, 5u));
  EXPECT_FALSE(seq_lt(5u, 5u));
}

}  // namespace
}  // namespace h2sim::tcp
