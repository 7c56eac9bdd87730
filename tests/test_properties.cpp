// Property-style parameterized sweeps over the protocol substrates:
// randomized inputs, invariant checks.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/dom.hpp"
#include "hpack/decoder.hpp"
#include "hpack/encoder.hpp"
#include "hpack/huffman.hpp"
#include "hpack/integer.hpp"
#include "net/topology.hpp"
#include "obs/context.hpp"
#include "attack/monitor.hpp"
#include "h2/frame.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/session.hpp"

namespace h2sim {
namespace {

// --- HPACK round-trip holds for random header lists ---

class HpackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HpackProperty, RandomHeaderListsRoundTrip) {
  sim::Rng rng(GetParam());
  hpack::Encoder enc;
  hpack::Decoder dec;
  for (int block = 0; block < 20; ++block) {
    hpack::HeaderList headers;
    const int n = static_cast<int>(rng.uniform(12)) + 1;
    for (int i = 0; i < n; ++i) {
      std::string name, value;
      const std::size_t name_len = rng.uniform(20) + 1;
      for (std::size_t k = 0; k < name_len; ++k) {
        name.push_back(static_cast<char>('a' + rng.uniform(26)));
      }
      const std::size_t value_len = rng.uniform(60);
      for (std::size_t k = 0; k < value_len; ++k) {
        value.push_back(static_cast<char>(rng.uniform(256)));
      }
      headers.push_back({std::move(name), std::move(value)});
    }
    const auto block_bytes = enc.encode(headers);
    const auto out = dec.decode(block_bytes);
    ASSERT_TRUE(out.has_value()) << "seed " << GetParam() << " block " << block;
    EXPECT_EQ(*out, headers);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpackProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Huffman round-trip for random byte strings ---

class HuffmanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HuffmanProperty, RandomStringsRoundTrip) {
  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    std::string s;
    const std::size_t len = rng.uniform(200);
    for (std::size_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(rng.uniform(256)));
    }
    std::string enc;
    hpack::huffman::encode(s, enc);
    EXPECT_EQ(enc.size(), hpack::huffman::encoded_size(s));
    const auto dec = hpack::huffman::decode(std::span(
        reinterpret_cast<const std::uint8_t*>(enc.data()), enc.size()));
    ASSERT_TRUE(dec.has_value());
    EXPECT_EQ(*dec, s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HuffmanProperty, ::testing::Values(101, 202, 303, 404));

// --- HPACK integers round-trip across all prefixes ---

class IntegerProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntegerProperty, RandomValuesRoundTrip) {
  const int prefix = GetParam();
  sim::Rng rng(static_cast<std::uint64_t>(prefix));
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.next_u64() >> (rng.uniform(50) + 8);
    std::vector<std::uint8_t> out;
    hpack::encode_integer(v, prefix, 0, out);
    std::size_t pos = 0;
    const auto back = hpack::decode_integer(out, pos, prefix);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, v);
    EXPECT_EQ(pos, out.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Prefixes, IntegerProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- DoM invariants on random wire logs ---

class DomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DomProperty, AlwaysInUnitIntervalAndZeroIffSingleRun) {
  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 30; ++iter) {
    analysis::WireLog log;
    const int events = static_cast<int>(rng.uniform(60)) + 1;
    for (int i = 0; i < events; ++i) {
      analysis::ServerWireEvent ev;
      ev.stream_id = static_cast<std::uint32_t>(1 + 2 * rng.uniform(4));
      ev.is_data = true;
      ev.data_bytes = rng.uniform(3000) + 1;
      ev.object = "o" + std::to_string(ev.stream_id);
      log.add(ev);
    }
    const auto all = analysis::degree_of_multiplexing_all(log);
    for (const auto& [sid, r] : all) {
      EXPECT_GE(r.dom, 0.0);
      EXPECT_LE(r.dom, 1.0);
      EXPECT_EQ(r.dom == 0.0, r.runs <= 1) << "stream " << sid;
      EXPECT_LE(r.largest_run_bytes, r.total_bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DomProperty, ::testing::Values(7, 77, 777));

// --- TCP delivers a random byte stream intact under random loss ---

struct TcpLossCase {
  std::uint64_t seed;
  double loss;
};

class TcpLossProperty : public ::testing::TestWithParam<TcpLossCase> {};

TEST_P(TcpLossProperty, StreamIntegrityUnderLoss) {
  const auto param = GetParam();
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  sim::EventLoop loop;
  sim::Rng rng(param.seed);

  net::Topology::Config pc;
  pc.server_side.loss_rate = param.loss;
  pc.server_side.loss_seed = param.seed;
  pc.client_side.loss_rate = param.loss / 2;
  pc.client_side.loss_seed = param.seed ^ 0xabcdef;
  net::Topology topo(loop, pc, 1);

  tcp::TcpStack server(loop, rng.split(), net::Topology::kServerNode,
                       [&](net::Packet&& p) { topo.send_from_server(std::move(p)); });
  tcp::TcpStack client(loop, rng.split(), net::Topology::client_node(0),
                       [&](net::Packet&& p) {
                         topo.send_from_client(0, std::move(p));
                       });
  topo.set_server_sink([&](net::Packet&& p) { server.deliver(std::move(p)); });
  topo.set_client_sink(0, [&](net::Packet&& p) { client.deliver(std::move(p)); });

  std::vector<std::uint8_t> sent(60000);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    sent[i] = static_cast<std::uint8_t>(rng.next_u64());
  }

  std::vector<std::uint8_t> received;
  server.listen(443, [&](tcp::TcpConnection& c) {
    tcp::TcpConnection::Callbacks cbs;
    cbs.on_data = [&](std::span<const std::uint8_t> b) {
      received.insert(received.end(), b.begin(), b.end());
    };
    c.set_callbacks(std::move(cbs));
  });

  tcp::TcpConnection& conn = client.connect(net::Topology::kServerNode, 443);
  tcp::TcpConnection::Callbacks ccb;
  ccb.on_connected = [&] { conn.send(sent); };
  conn.set_callbacks(std::move(ccb));

  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(60));
  ASSERT_EQ(received.size(), sent.size());
  EXPECT_EQ(received, sent);  // exact in-order delivery despite loss
  // Retransmissions must have happened if the links actually lost several
  // packets (a couple of losses may all hit pure ACKs, which need none).
  const auto count = [&ctx](const char* name) {
    return ctx.metrics.counter_value(name);
  };
  if (count("net.link_random_losses") > 4) {
    EXPECT_GT(count("tcp.retransmits_fast") + count("tcp.retransmits_rto"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    LossGrid, TcpLossProperty,
    ::testing::Values(TcpLossCase{1, 0.0}, TcpLossCase{2, 0.005},
                      TcpLossCase{3, 0.02}, TcpLossCase{4, 0.05},
                      TcpLossCase{5, 0.02}, TcpLossCase{6, 0.05}));

// --- TLS protection round-trips arbitrary payload sizes ---

class TlsSizeProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TlsSizeProperty, WriteOfAnySizeDeliversExactly) {
  sim::EventLoop loop;
  net::Topology topo(loop, net::Topology::Config{}, 1);
  tcp::TcpStack server(loop, sim::Rng(1), net::Topology::kServerNode,
                       [&](net::Packet&& p) { topo.send_from_server(std::move(p)); });
  tcp::TcpStack client(loop, sim::Rng(2), net::Topology::client_node(0),
                       [&](net::Packet&& p) {
                         topo.send_from_client(0, std::move(p));
                       });
  topo.set_server_sink([&](net::Packet&& p) { server.deliver(std::move(p)); });
  topo.set_client_sink(0, [&](net::Packet&& p) { client.deliver(std::move(p)); });

  std::unique_ptr<tls::TlsSession> server_tls;
  std::vector<std::uint8_t> got;
  server.listen(443, [&](tcp::TcpConnection& c) {
    server_tls = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kServer);
    tls::TlsSession::Callbacks cbs;
    cbs.on_plaintext = [&](std::span<const std::uint8_t> b) {
      got.insert(got.end(), b.begin(), b.end());
    };
    server_tls->set_callbacks(std::move(cbs));
  });

  tcp::TcpConnection& c = client.connect(net::Topology::kServerNode, 443);
  tls::TlsSession ctls(c, tls::TlsSession::Role::kClient);
  const std::size_t size = GetParam();
  std::vector<std::uint8_t> msg(size);
  for (std::size_t i = 0; i < size; ++i) msg[i] = static_cast<std::uint8_t>(i * 31);
  tls::TlsSession::Callbacks cbs;
  cbs.on_established = [&] { ctls.write(msg); };
  ctls.set_callbacks(std::move(cbs));

  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(30));
  EXPECT_EQ(got, msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlsSizeProperty,
                         ::testing::Values(1, 2, 100, 1024, 16384, 16385, 40000,
                                           100000));

// --- Frame decoder never crashes or loops on random garbage ---

class FrameFuzzProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameFuzzProperty, RandomBytesNeverCrash) {
  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    h2::FrameDecoder dec;
    dec.set_max_frame_size(1 << 14);
    const std::size_t len = rng.uniform(4000);
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    dec.feed(junk);
    int guard = 0;
    while (dec.next().has_value()) {
      ASSERT_LT(++guard, 10000);  // must terminate
    }
  }
}

TEST_P(FrameFuzzProperty, HpackDecoderRejectsOrParsesGarbage) {
  sim::Rng rng(GetParam());
  hpack::Decoder dec;
  for (int iter = 0; iter < 100; ++iter) {
    std::vector<std::uint8_t> junk(rng.uniform(120));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    // Must not crash; result is either a header list or a clean failure.
    (void)dec.decode(junk);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzProperty, ::testing::Values(11, 22, 33));

// --- Monitor reconstructs identical records under any packetization ---

class MonitorSegmentationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MonitorSegmentationProperty, RecordStreamInvariantUnderPacketization) {
  sim::Rng rng(GetParam());

  // Build a reference byte stream of records with known sizes.
  std::vector<std::size_t> sizes;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 25; ++i) {
    const std::size_t body = 20 + rng.uniform(1500);
    sizes.push_back(body);
    tls::RecordHeader h;
    h.type = tls::ContentType::kApplicationData;
    h.length = static_cast<std::uint16_t>(body);
    std::vector<std::uint8_t> bytes(body, static_cast<std::uint8_t>(i));
    const auto wire = tls::serialize_record(h, bytes);
    stream.insert(stream.end(), wire.begin(), wire.end());
  }

  // Deliver the stream to the monitor in random-sized TCP segments.
  attack::TrafficMonitor monitor;
  net::Packet syn;
  syn.src = 1;
  syn.dst = 2;
  syn.tcp.src_port = 50000;
  syn.tcp.dst_port = 443;
  syn.tcp.seq = 1000;
  syn.tcp.flags = net::tcpflag::kSyn;
  monitor.observe(syn, net::Direction::kClientToServer, sim::TimePoint::origin());

  std::size_t pos = 0;
  std::uint32_t seq = 1001;
  while (pos < stream.size()) {
    const std::size_t n = std::min<std::size_t>(1 + rng.uniform(1460),
                                                stream.size() - pos);
    net::Packet p;
    p.id = 100 + pos;
    p.src = 1;
    p.dst = 2;
    p.tcp.src_port = 50000;
    p.tcp.dst_port = 443;
    p.tcp.seq = seq;
    p.tcp.flags = net::tcpflag::kAck;
    p.payload.assign(stream.begin() + static_cast<std::ptrdiff_t>(pos),
                     stream.begin() + static_cast<std::ptrdiff_t>(pos + n));
    monitor.observe(p, net::Direction::kClientToServer, sim::TimePoint::origin());
    pos += n;
    seq += static_cast<std::uint32_t>(n);
  }

  const auto& records = monitor.trace().records();
  ASSERT_EQ(records.size(), sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(records[i].body_len, sizes[i]) << "record " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorSegmentationProperty,
                         ::testing::Values(41, 42, 43, 44));

}  // namespace
}  // namespace h2sim
