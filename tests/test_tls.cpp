#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/record.hpp"
#include "tls/session.hpp"

namespace h2sim::tls {
namespace {

TEST(RecordCodec, SerializeParseRoundTrip) {
  RecordHeader h;
  h.type = ContentType::kApplicationData;
  std::vector<std::uint8_t> body = {1, 2, 3, 4, 5};
  h.length = static_cast<std::uint16_t>(body.size());
  const auto wire = serialize_record(h, body);
  ASSERT_EQ(wire.size(), kRecordHeaderBytes + 5);
  EXPECT_EQ(wire[0], 23);

  RecordParser p;
  p.feed(wire);
  RecordParser::Record rec;
  ASSERT_TRUE(p.next(rec));
  EXPECT_EQ(rec.header.type, ContentType::kApplicationData);
  EXPECT_EQ(rec.header.length, 5u);
  EXPECT_EQ(rec.body, body);
  EXPECT_FALSE(p.next(rec));
}

TEST(RecordCodec, ParserHandlesFragmentedInput) {
  RecordHeader h;
  std::vector<std::uint8_t> body(100, 0x55);
  h.length = 100;
  const auto wire = serialize_record(h, body);

  RecordParser p;
  RecordParser::Record rec;
  // Feed one byte at a time.
  for (std::size_t i = 0; i < wire.size(); ++i) {
    p.feed(std::span(&wire[i], 1));
    if (i + 1 < wire.size()) {
      EXPECT_FALSE(p.next(rec));
    }
  }
  ASSERT_TRUE(p.next(rec));
  EXPECT_EQ(rec.body.size(), 100u);
}

TEST(RecordCodec, ParserHandlesCoalescedRecords) {
  RecordHeader h;
  std::vector<std::uint8_t> b1(10, 1), b2(20, 2);
  h.length = 10;
  auto wire = serialize_record(h, b1);
  h.length = 20;
  const auto wire2 = serialize_record(h, b2);
  wire.insert(wire.end(), wire2.begin(), wire2.end());

  RecordParser p;
  p.feed(wire);
  RecordParser::Record r1, r2;
  ASSERT_TRUE(p.next(r1));
  ASSERT_TRUE(p.next(r2));
  EXPECT_EQ(r1.body.size(), 10u);
  EXPECT_EQ(r2.body.size(), 20u);
}

TEST(RecordCodec, PeekHeaderDoesNotConsume) {
  RecordHeader h;
  h.type = ContentType::kHandshake;
  const std::vector<std::uint8_t> body(40, 7);
  const auto wire = serialize_record(h, body);

  RecordParser p;
  RecordHeader peeked;
  p.feed(std::span(wire).first(4));
  EXPECT_FALSE(p.peek_header(peeked));
  p.feed(std::span(wire).subspan(4, 1));
  ASSERT_TRUE(p.peek_header(peeked));
  EXPECT_EQ(peeked.type, ContentType::kHandshake);
  EXPECT_EQ(peeked.length, 40u);
  EXPECT_FALSE(p.next_header(peeked));  // body not yet buffered
  p.feed(std::span(wire).subspan(5));
  RecordParser::Record rec;
  ASSERT_TRUE(p.next(rec));
  EXPECT_EQ(rec.body, body);
  EXPECT_EQ(p.pending_bytes(), 0u);
}

/// Deterministic stand-in for a fuzzer (no libFuzzer needed): valid record
/// streams cut at random boundaries reassemble byte-exactly, and random
/// garbage never crashes the parser (run under the ASan/UBSan build).
TEST(RecordCodec, RandomSplitsReassembleAndGarbageNeverCrashes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    std::vector<std::uint8_t> stream;
    std::vector<RecordParser::Record> sent;
    for (int i = 0; i < 40; ++i) {
      RecordParser::Record r;
      r.header.type = static_cast<ContentType>(20 + rng.uniform(4));
      r.body.resize(rng.uniform(i % 8 == 0 ? kMaxCiphertextBytes + 1 : 300));
      for (auto& b : r.body) b = static_cast<std::uint8_t>(rng.uniform(256));
      r.header.length = static_cast<std::uint16_t>(r.body.size());
      const auto wire = serialize_record(r.header, r.body);
      stream.insert(stream.end(), wire.begin(), wire.end());
      sent.push_back(std::move(r));
    }

    RecordParser p;
    RecordParser::Record rec;
    std::size_t got = 0;
    for (std::size_t pos = 0; pos < stream.size();) {
      const std::size_t n =
          std::min<std::size_t>(rng.uniform(2000), stream.size() - pos);
      p.feed(std::span(stream).subspan(pos, n));
      pos += n;
      while (p.next(rec)) {
        ASSERT_LT(got, sent.size());
        EXPECT_EQ(rec.header.type, sent[got].header.type);
        EXPECT_EQ(rec.header.length, sent[got].header.length);
        EXPECT_EQ(rec.body, sent[got].body) << "seed " << seed << " record " << got;
        ++got;
      }
    }
    EXPECT_EQ(got, sent.size()) << "seed " << seed;
    EXPECT_EQ(p.pending_bytes(), 0u);

    RecordParser junk;
    RecordHeader h;
    for (int i = 0; i < 200; ++i) {
      std::vector<std::uint8_t> bytes(rng.uniform(600));
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
      junk.feed(bytes);
      junk.peek_header(h);
      while (rng.uniform(2) ? junk.next(rec) : junk.next_header(h)) {
      }
    }
  }
}

/// Full client/server TLS-over-TCP fixture through the simulated topo. Both
/// sessions use `protection()`.
class TlsPairTest : public ::testing::Test {
 protected:
  virtual TlsSession::Protection protection() const {
    return TlsSession::Protection::kFull;
  }

  void SetUp() override {
    topo_ = std::make_unique<net::Topology>(loop_, net::Topology::Config{}, 1);
    server_stack_ = std::make_unique<tcp::TcpStack>(
        loop_, sim::Rng(1), net::Topology::kServerNode, tcp::TcpConfig{},
        [this](net::Packet&& p) { topo_->send_from_server(std::move(p)); });
    client_stack_ = std::make_unique<tcp::TcpStack>(
        loop_, sim::Rng(2), net::Topology::client_node(0), tcp::TcpConfig{},
        [this](net::Packet&& p) { topo_->send_from_client(0, std::move(p)); });
    topo_->set_server_sink(
        [this](net::Packet&& p) { server_stack_->deliver(std::move(p)); });
    topo_->set_client_sink(0, 
        [this](net::Packet&& p) { client_stack_->deliver(std::move(p)); });

    server_stack_->listen(443, [this](tcp::TcpConnection& c) {
      server_tls_ =
          std::make_unique<TlsSession>(c, TlsSession::Role::kServer, protection());
      TlsSession::Callbacks cbs;
      cbs.on_established = [this] { server_established_ = true; };
      cbs.on_aborted = [this](std::string_view r) { server_abort_ = r; };
      cbs.on_plaintext = [this](std::span<const std::uint8_t> b) {
        server_received_.insert(server_received_.end(), b.begin(), b.end());
        if (echo_) server_tls_->write(b);
      };
      server_tls_->set_callbacks(std::move(cbs));
    });

    tcp::TcpConnection& c = client_stack_->connect(net::Topology::kServerNode, 443);
    client_tls_ =
        std::make_unique<TlsSession>(c, TlsSession::Role::kClient, protection());
    TlsSession::Callbacks cbs;
    cbs.on_established = [this] { client_established_ = true; };
    cbs.on_plaintext = [this](std::span<const std::uint8_t> b) {
      client_received_.insert(client_received_.end(), b.begin(), b.end());
    };
    client_tls_->set_callbacks(std::move(cbs));
  }

  /// Runs the loop for `seconds` of additional simulated time.
  void run(double seconds = 5) {
    loop_.run(loop_.now() + sim::Duration::seconds_f(seconds));
  }

  sim::EventLoop loop_;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<tcp::TcpStack> server_stack_;
  std::unique_ptr<tcp::TcpStack> client_stack_;
  std::unique_ptr<TlsSession> server_tls_;
  std::unique_ptr<TlsSession> client_tls_;
  std::vector<std::uint8_t> server_received_;
  std::vector<std::uint8_t> client_received_;
  bool client_established_ = false;
  bool server_established_ = false;
  bool echo_ = false;
  std::string server_abort_;
};

TEST_F(TlsPairTest, HandshakeCompletesBothSides) {
  run();
  EXPECT_TRUE(client_established_);
  EXPECT_TRUE(server_established_);
}

TEST_F(TlsPairTest, PlaintextRoundTrip) {
  echo_ = true;
  run(1);
  ASSERT_TRUE(client_established_);
  std::vector<std::uint8_t> msg(5000);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  client_tls_->write(msg);
  run(5);
  EXPECT_EQ(server_received_, msg);
  EXPECT_EQ(client_received_, msg);  // echoed back
}

TEST_F(TlsPairTest, CiphertextDiffersFromPlaintext) {
  ASSERT_EQ(protection(), TlsSession::Protection::kFull);
  run(1);
  // Tap the path to confirm no plaintext pattern leaks on the wire.
  std::vector<std::uint8_t> wire_bytes;
  topo_->middlebox().set_tap(
      [&](const net::Packet& p, net::Direction d, sim::TimePoint) {
        if (d == net::Direction::kClientToServer) {
          wire_bytes.insert(wire_bytes.end(), p.payload.begin(), p.payload.end());
        }
      });
  std::vector<std::uint8_t> msg(1000, 0x41);  // 'A' repeated
  client_tls_->write(msg);
  run(5);
  ASSERT_EQ(server_received_, msg);
  // The wire must not contain a run of 100 'A's.
  int run_len = 0, max_run = 0;
  for (std::uint8_t b : wire_bytes) {
    run_len = b == 0x41 ? run_len + 1 : 0;
    max_run = std::max(max_run, run_len);
  }
  EXPECT_LT(max_run, 100);
}

/// The same pair with elided record protection: plaintext bodies.
class TlsElidedPairTest : public TlsPairTest {
 protected:
  TlsSession::Protection protection() const override {
    return TlsSession::Protection::kElided;
  }
};

TEST_F(TlsElidedPairTest, RecordsKeepTheirSizeAndCarryPlaintext) {
  run(1);
  ASSERT_TRUE(client_established_ && server_established_);
  std::vector<std::uint8_t> wire_bytes;
  topo_->middlebox().set_tap(
      [&](const net::Packet& p, net::Direction d, sim::TimePoint) {
        if (d == net::Direction::kClientToServer) {
          wire_bytes.insert(wire_bytes.end(), p.payload.begin(), p.payload.end());
        }
      });
  echo_ = true;
  std::vector<std::uint8_t> msg(40000);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  client_tls_->write(msg);
  run(5);
  EXPECT_EQ(server_received_, msg);
  EXPECT_EQ(client_received_, msg);
  EXPECT_EQ(server_abort_, "");

  // Records of 16384, 16384 and 7232 plaintext bytes, each +5 header and
  // +16 tag as in full mode, with the plaintext as the body.
  RecordParser parser;
  parser.feed(wire_bytes);
  RecordParser::Record rec;
  std::size_t pos = 0;
  for (const std::size_t n : {16384u, 16384u, 7232u}) {
    ASSERT_TRUE(parser.next(rec));
    EXPECT_EQ(rec.header.type, ContentType::kApplicationData);
    ASSERT_EQ(rec.header.length, n + kAeadTagBytes);
    EXPECT_TRUE(std::equal(msg.begin() + pos, msg.begin() + pos + n,
                           rec.body.begin()));
    pos += n;
  }
  EXPECT_FALSE(parser.next(rec));
}

/// A client/server pair with its protection picked at construction, so one
/// test can drive a kFull and a kElided pair side by side.
class TlsPair : public TlsPairTest {
 public:
  explicit TlsPair(TlsSession::Protection protection) : protection_(protection) {
    SetUp();
  }
  void TestBody() override {}
  TlsSession::Protection protection() const override { return protection_; }

  std::uint16_t client_port() { return client_tls_->connection().local_port(); }

  /// Completes the handshake, writes `msg` from the client and returns the
  /// client-to-server TCP payload bytes that carried it.
  std::vector<std::uint8_t> client_wire(const std::vector<std::uint8_t>& msg) {
    run(1);
    std::vector<std::uint8_t> wire;
    topo_->middlebox().set_tap(
        [&](const net::Packet& p, net::Direction d, sim::TimePoint) {
          if (d == net::Direction::kClientToServer) {
            wire.insert(wire.end(), p.payload.begin(), p.payload.end());
          }
        });
    client_tls_->write(msg);
    run(5);
    EXPECT_EQ(server_received_, msg);
    EXPECT_EQ(server_abort_, "");
    return wire;
  }

 private:
  TlsSession::Protection protection_;
};

TEST(TlsRecordTag, FullRecordIsTheElidedRecordUnderTheKeystream) {
  std::vector<std::uint8_t> msg(40000);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  TlsPair full(TlsSession::Protection::kFull);
  TlsPair elided(TlsSession::Protection::kElided);
  // Same ports, hence the same session key.
  ASSERT_EQ(full.client_port(), elided.client_port());
  const std::vector<std::uint8_t> full_wire = full.client_wire(msg);
  const std::vector<std::uint8_t> elided_wire = elided.client_wire(msg);
  ASSERT_EQ(full_wire.size(), elided_wire.size());

  // Record by record: the header and the tag are byte-equal, the body is not.
  std::size_t pos = 0;
  int records = 0;
  while (pos + kRecordHeaderBytes <= elided_wire.size()) {
    SCOPED_TRACE(records);
    const auto at = [pos](const std::vector<std::uint8_t>& w, std::size_t from,
                          std::size_t len) {
      return std::vector<std::uint8_t>(w.begin() + pos + from,
                                       w.begin() + pos + from + len);
    };
    ASSERT_EQ(at(full_wire, 0, kRecordHeaderBytes),
              at(elided_wire, 0, kRecordHeaderBytes));
    EXPECT_EQ(elided_wire[pos], static_cast<std::uint8_t>(ContentType::kApplicationData));
    const std::size_t len = std::size_t{elided_wire[pos + 3]} << 8 | elided_wire[pos + 4];
    ASSERT_GT(len, kAeadTagBytes);
    ASSERT_LE(pos + kRecordHeaderBytes + len, elided_wire.size());
    const std::size_t n = len - kAeadTagBytes;
    EXPECT_NE(at(full_wire, kRecordHeaderBytes, n),
              at(elided_wire, kRecordHeaderBytes, n));
    EXPECT_EQ(at(full_wire, kRecordHeaderBytes + n, kAeadTagBytes),
              at(elided_wire, kRecordHeaderBytes + n, kAeadTagBytes));
    pos += kRecordHeaderBytes + len;
    ++records;
  }
  EXPECT_EQ(pos, elided_wire.size());
  EXPECT_EQ(records, 3);  // 16384 + 16384 + 7232 plaintext bytes
}

TEST_F(TlsPairTest, RecordOverheadIsAccounted) {
  run(1);
  const auto before = client_tls_->records_sent();
  std::vector<std::uint8_t> msg(100, 1);
  client_tls_->write(msg);
  run(1);
  EXPECT_EQ(client_tls_->records_sent(), before + 1);
}

TEST_F(TlsPairTest, LargeWritesSplitIntoMaxSizeRecords) {
  run(1);
  const auto before = client_tls_->records_sent();
  std::vector<std::uint8_t> msg(40000, 1);
  client_tls_->write(msg);
  run(5);
  // 40000 / 16384 -> 3 records.
  EXPECT_EQ(client_tls_->records_sent(), before + 3);
  EXPECT_EQ(server_received_.size(), 40000u);
}

TEST_F(TlsPairTest, ManySmallWritesSurviveTcpCoalescing) {
  run(1);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> msg(37, static_cast<std::uint8_t>(i));
    client_tls_->write(msg);
  }
  run(5);
  EXPECT_EQ(server_received_.size(), 50u * 37u);
}

TEST_F(TlsPairTest, UnknownContentTypeAborts) {
  run(1);
  ASSERT_TRUE(server_established_);
  const std::uint8_t bogus[] = {0x63, 0x03, 0x03, 0x00, 0x02, 0xaa, 0xbb};
  client_tls_->connection().send(bogus);
  run(1);
  EXPECT_EQ(server_abort_, "tls-unexpected-message");
  EXPECT_TRUE(server_tls_->connection().aborted());
}

TEST_F(TlsPairTest, OversizedHeaderAbortsBeforeBody) {
  run(1);
  ASSERT_TRUE(server_established_);
  // Claims 65535 body bytes; only the header and a few bytes are ever sent.
  const std::uint8_t huge[] = {23, 0x03, 0x03, 0xff, 0xff, 1, 2, 3};
  client_tls_->connection().send(huge);
  run(1);
  EXPECT_EQ(server_abort_, "tls-record-overflow");
  EXPECT_TRUE(server_tls_->connection().aborted());
}

TEST_F(TlsPairTest, CloseDeliversCleanTeardown) {
  run(1);
  // Server closes its side in response (full duplex teardown).
  tls::TlsSession::Callbacks cbs;
  cbs.on_peer_close = [this] { server_tls_->close(); };
  server_tls_->set_callbacks(std::move(cbs));
  client_tls_->close();
  run(5);
  EXPECT_TRUE(client_tls_->connection().fully_closed());
  EXPECT_TRUE(server_tls_->connection().fully_closed());
}

}  // namespace
}  // namespace h2sim::tls
