// Failure-injection tests: protocol violations and corruption must surface
// as clean, local errors — never as silent corruption or hangs.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "h2_fixture.hpp"
#include "http/message.hpp"
#include "obs/context.hpp"
#include "tls/record.hpp"

namespace h2sim {
namespace {

using h2sim::testing::H2Pair;

/// An in-flight rewrite of the client-to-server TLS byte stream.
enum class Mutation { kNone, kFlipByte, kSwapWords, kReplayRecord };

struct CorruptionOutcome {
  std::string server_abort;        // empty if the server never aborted
  std::vector<std::uint8_t> delivered;  // plaintext the server accepted
  bool mutated = false;            // the rewrite hit the stream
};

/// Sends two equal-length application records A and B from client to server
/// through a middlebox that applies `m` to the byte stream.
CorruptionOutcome send_through_corruptor(tls::TlsSession::Protection mode,
                                         Mutation m,
                                         const std::vector<std::uint8_t>& a,
                                         const std::vector<std::uint8_t>& b) {
  sim::EventLoop loop;
  net::Topology topo(loop, net::Topology::Config{}, 1);
  tcp::TcpConfig cfg;
  tcp::TcpStack server_stack(loop, sim::Rng(1), net::Topology::kServerNode, cfg,
                             [&](net::Packet&& p) {
                               topo.send_from_server(std::move(p));
                             });
  tcp::TcpStack client_stack(loop, sim::Rng(2), net::Topology::client_node(0), cfg,
                             [&](net::Packet&& p) {
                               topo.send_from_client(0, std::move(p));
                             });
  topo.set_server_sink([&](net::Packet&& p) { server_stack.deliver(std::move(p)); });
  topo.set_client_sink(0, [&](net::Packet&& p) { client_stack.deliver(std::move(p)); });

  CorruptionOutcome out;
  std::unique_ptr<tls::TlsSession> server_tls;
  server_stack.listen(443, [&](tcp::TcpConnection& c) {
    server_tls = std::make_unique<tls::TlsSession>(
        c, tls::TlsSession::Role::kServer, mode);
    tls::TlsSession::Callbacks cbs;
    cbs.on_plaintext = [&](std::span<const std::uint8_t> p) {
      out.delivered.insert(out.delivered.end(), p.begin(), p.end());
    };
    cbs.on_aborted = [&](std::string_view r) { out.server_abort = r; };
    server_tls->set_callbacks(std::move(cbs));
  });

  tcp::TcpConnection& conn = client_stack.connect(net::Topology::kServerNode, 443);
  tls::TlsSession client_tls(conn, tls::TlsSession::Role::kClient, mode);

  // Stream layout: ClientHello (5 + 512) and Finished (5 + 64) records, then
  // A and B, each a 5-byte header, the body and the 16-byte tag.
  constexpr std::size_t kAppStart = 5 + 512 + 5 + 64;
  const std::size_t rec_len = tls::kRecordHeaderBytes + a.size() + tls::kAeadTagBytes;
  // The middlebox API is non-mutating; corrupt via const_cast to simulate
  // in-flight rewriting (test-only). Offsets are stream positions from the
  // TCP sequence number, so the rewrite does not depend on segmentation.
  class Corruptor : public net::PacketPolicy {
   public:
    Corruptor(Mutation m, std::size_t rec_len, bool* mutated)
        : m_(m), rec_len_(rec_len), mutated_(mutated) {}
    net::Decision on_packet(const net::Packet& p, net::Direction dir,
                            sim::TimePoint) override {
      if (dir != net::Direction::kClientToServer || p.payload.empty()) {
        return net::Decision::forward();
      }
      if (!base_) base_ = p.tcp.seq;
      const std::size_t off = p.tcp.seq - *base_;
      auto& payload = const_cast<net::Packet&>(p).payload;
      if (seen_.size() < off + payload.size()) seen_.resize(off + payload.size());
      std::copy(payload.begin(), payload.end(), seen_.begin() + off);
      for (std::size_t i = 0; i < payload.size(); ++i) {
        const std::optional<std::size_t> from = source(off + i);
        if (from && *from < seen_.size()) {
          payload[i] = *from == off + i ? payload[i] ^ 0xff : seen_[*from];
          *mutated_ = true;
        }
      }
      return net::Decision::forward();
    }

   private:
    /// Where the byte at stream offset `o` is taken from (itself means
    /// "flip it"), or nullopt to leave it alone.
    std::optional<std::size_t> source(std::size_t o) const {
      const std::size_t body = kAppStart + tls::kRecordHeaderBytes;
      switch (m_) {
        case Mutation::kNone:
          return std::nullopt;
        case Mutation::kFlipByte:  // one byte in the middle of A's body
          if (o == body + rec_len_ / 2) return o;
          return std::nullopt;
        case Mutation::kSwapWords:  // A's body words 1 and 3
          if (o >= body + 8 && o < body + 16) return o + 16;
          if (o >= body + 24 && o < body + 32) return o - 16;
          return std::nullopt;
        case Mutation::kReplayRecord:  // B's bytes become A's
          if (o >= kAppStart + rec_len_ && o < kAppStart + 2 * rec_len_) {
            return o - rec_len_;
          }
          return std::nullopt;
      }
      return std::nullopt;
    }

    Mutation m_;
    std::size_t rec_len_;
    bool* mutated_;
    std::optional<std::uint32_t> base_;
    std::vector<std::uint8_t> seen_;  // the stream as sent
  } corruptor(m, rec_len, &out.mutated);
  topo.middlebox().set_policy(&corruptor);

  tls::TlsSession::Callbacks ccbs;
  ccbs.on_established = [&] {
    client_tls.write(a);
    client_tls.write(b);
  };
  client_tls.set_callbacks(std::move(ccbs));

  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(10));
  return out;
}

TEST(ErrorPaths, TlsDetectsCorruptedCiphertext) {
  // A flipped byte, two swapped 8-byte words and a replayed record must each
  // fail the record MAC, in both protection modes: the session aborts rather
  // than deliver the rewritten record.
  std::vector<std::uint8_t> a(1000), b(1000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<std::uint8_t>(i * 7 + 1);
    b[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  std::vector<std::uint8_t> ab = a;
  ab.insert(ab.end(), b.begin(), b.end());

  using P = tls::TlsSession::Protection;
  for (const P mode : {P::kFull, P::kElided}) {
    SCOPED_TRACE(mode == P::kFull ? "full" : "elided");
    const CorruptionOutcome clean =
        send_through_corruptor(mode, Mutation::kNone, a, b);
    EXPECT_EQ(clean.server_abort, "");
    EXPECT_EQ(clean.delivered, ab);

    for (const Mutation m :
         {Mutation::kFlipByte, Mutation::kSwapWords, Mutation::kReplayRecord}) {
      SCOPED_TRACE(static_cast<int>(m));
      const CorruptionOutcome bad = send_through_corruptor(mode, m, a, b);
      EXPECT_TRUE(bad.mutated);
      EXPECT_EQ(bad.server_abort, "tls-bad-record-mac");
      // Only the records before the rewritten one get through.
      EXPECT_EQ(bad.delivered,
                m == Mutation::kReplayRecord ? a : std::vector<std::uint8_t>{});
    }
  }
}

TEST(ErrorPaths, BadConnectionPrefaceKillsConnection) {
  // A client that speaks garbage instead of "PRI * HTTP/2.0..." must get the
  // connection torn down.
  sim::EventLoop loop;
  net::Topology topo(loop, net::Topology::Config{}, 1);
  tcp::TcpConfig cfg;
  tcp::TcpStack server_stack(loop, sim::Rng(1), net::Topology::kServerNode, cfg,
                             [&](net::Packet&& p) {
                               topo.send_from_server(std::move(p));
                             });
  tcp::TcpStack client_stack(loop, sim::Rng(2), net::Topology::client_node(0), cfg,
                             [&](net::Packet&& p) {
                               topo.send_from_client(0, std::move(p));
                             });
  topo.set_server_sink([&](net::Packet&& p) { server_stack.deliver(std::move(p)); });
  topo.set_client_sink(0, [&](net::Packet&& p) { client_stack.deliver(std::move(p)); });

  std::unique_ptr<tls::TlsSession> server_tls;
  std::unique_ptr<h2::ServerConnection> server;
  bool dead = false;
  server_stack.listen(443, [&](tcp::TcpConnection& c) {
    server_tls = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kServer);
    server = std::make_unique<h2::ServerConnection>(loop, *server_tls,
                                                    h2::ConnectionConfig{}, sim::Rng(3));
    h2::ServerConnection::Handlers h;
    h.on_connection_dead = [&](std::string_view) { dead = true; };
    server->set_handlers(std::move(h));
  });

  tcp::TcpConnection& conn = client_stack.connect(net::Topology::kServerNode, 443);
  tls::TlsSession client_tls(conn, tls::TlsSession::Role::kClient);
  tls::TlsSession::Callbacks cbs;
  cbs.on_established = [&] {
    const char* junk = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
    client_tls.write(std::span(reinterpret_cast<const std::uint8_t*>(junk), 28));
  };
  client_tls.set_callbacks(std::move(cbs));
  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(5));
  EXPECT_TRUE(dead);
  EXPECT_TRUE(server->dead());
}

TEST(ErrorPaths, FrameSizeViolationIsConnectionError) {
  H2Pair pair;
  pair.run(1);
  // Bypass the connection API: write an oversized frame straight to TLS.
  h2::Frame f;
  f.type = h2::FrameType::kData;
  f.stream_id = 1;
  f.payload.assign(100000, 0x0);  // 100 KB > the server's 16 KB max
  pair.client_tls->write(h2::serialize_frame(f));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

// A connection error has no counter; the trial's tracer is where it shows.
TEST(ErrorPaths, ConnectionErrorIsTraced) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  ctx.tracer.enable(obs::Component::kH2);
  H2Pair pair;
  pair.run(1);
  h2::Frame f;
  f.type = h2::FrameType::kData;
  f.stream_id = 1;
  f.payload.assign(100000, 0x0);  // over the server's 16 KB max frame size
  pair.client_tls->write(h2::serialize_frame(f));
  pair.run(2);
  ASSERT_TRUE(pair.server->dead());
  const auto& events = ctx.tracer.events();
  const auto it = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.name == "connection-error";
  });
  ASSERT_NE(it, events.end());
  EXPECT_EQ(it->pid, obs::track::kServer);
  EXPECT_NE(it->args.find("FRAME_SIZE_ERROR"), std::string::npos) << it->args;
}

TEST(ErrorPaths, ControlFrameViolationsSendRfcCodes) {
  struct Case {
    const char* what;
    h2::FrameType type;
    std::uint8_t flags;
    std::uint32_t stream_id;
    std::vector<std::uint8_t> payload;
    const char* code;
  };
  const h2::SettingsEntry push2[] = {{h2::SettingId::kEnablePush, 2}};
  const std::vector<Case> cases = {
      {"SETTINGS ACK with payload (6.5)", h2::FrameType::kSettings,
       h2::flags::kAck, 0, {0, 0, 0, 0, 0, 0}, "FRAME_SIZE_ERROR"},
      {"ENABLE_PUSH = 2 (6.5.2)", h2::FrameType::kSettings, 0, 0,
       h2::encode_settings(push2), "PROTOCOL_ERROR"},
      {"3-byte RST_STREAM (6.4)", h2::FrameType::kRstStream, 0, 1, {0, 0, 0},
       "FRAME_SIZE_ERROR"},
      {"PING on stream 1 (6.7)", h2::FrameType::kPing, 0, 1,
       std::vector<std::uint8_t>(8, 0), "PROTOCOL_ERROR"},
      {"GOAWAY on stream 1 (6.8)", h2::FrameType::kGoaway, 0, 1,
       h2::encode_goaway({0, h2::ErrorCode::kNoError, ""}), "PROTOCOL_ERROR"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    obs::Context ctx;
    obs::ScopedContext scope(ctx);
    ctx.tracer.enable(obs::Component::kH2);
    H2Pair pair;
    pair.run(1);
    h2::Frame f;
    f.type = c.type;
    f.flags = c.flags;
    f.stream_id = c.stream_id;
    f.payload = c.payload;
    pair.client_tls->write(h2::serialize_frame(f));
    pair.run(2);
    EXPECT_TRUE(pair.server->dead());
    const auto& events = ctx.tracer.events();
    const auto it = std::find_if(events.begin(), events.end(), [](const auto& e) {
      return e.name == "connection-error" && e.pid == obs::track::kServer;
    });
    if (it == events.end()) {
      ADD_FAILURE() << "no server connection-error event";
      continue;
    }
    EXPECT_NE(it->args.find(std::string("\"code\": \"") + c.code + "\""),
              std::string::npos)
        << it->args;
  }
}

TEST(ErrorPaths, GarbageHeaderBlockIsCompressionError) {
  H2Pair pair;
  pair.run(1);
  h2::Frame f;
  f.type = h2::FrameType::kHeaders;
  f.flags = h2::flags::kEndHeaders | h2::flags::kEndStream;
  f.stream_id = 1;
  f.payload = {0xff, 0xff, 0xff, 0xff, 0xff};  // invalid HPACK index ladder
  pair.client_tls->write(h2::serialize_frame(f));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());  // COMPRESSION_ERROR closes the connection
}

TEST(ErrorPaths, DataOnStreamZeroIsProtocolError) {
  H2Pair pair;
  pair.run(1);
  h2::Frame f;
  f.type = h2::FrameType::kData;
  f.stream_id = 0;
  f.payload = {1, 2, 3};
  pair.client_tls->write(h2::serialize_frame(f));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

TEST(ErrorPaths, ZeroWindowUpdateIsProtocolError) {
  H2Pair pair;
  pair.run(1);
  h2::Frame f;
  f.type = h2::FrameType::kWindowUpdate;
  f.stream_id = 0;
  f.payload = h2::encode_window_update(0);
  pair.client_tls->write(h2::serialize_frame(f));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

TEST(ErrorPaths, UnknownFrameTypesAreIgnored) {
  H2Pair pair;
  pair.run(1);
  h2::Frame f;
  f.type = static_cast<h2::FrameType>(0xEE);  // greased/unknown
  f.stream_id = 0;
  f.payload = {9, 9, 9};
  pair.client_tls->write(h2::serialize_frame(f));
  pair.run(2);
  EXPECT_FALSE(pair.server->dead());  // §4.1: ignore and discard
}

TEST(ErrorPaths, PushPromiseFromClientIsProtocolError) {
  H2Pair pair;
  pair.run(1);
  h2::Frame f;
  f.type = h2::FrameType::kPushPromise;
  f.flags = h2::flags::kEndHeaders;
  f.stream_id = 1;
  f.payload = h2::encode_push_promise(2, {});
  pair.client_tls->write(h2::serialize_frame(f));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

TEST(ErrorPaths, InterleavedHeaderBlockIsProtocolError) {
  H2Pair pair;
  pair.run(1);
  // HEADERS without END_HEADERS, then a DATA frame instead of CONTINUATION.
  h2::Frame h;
  h.type = h2::FrameType::kHeaders;
  h.stream_id = 1;
  h.payload = {0x82};
  pair.client_tls->write(h2::serialize_frame(h));
  h2::Frame d;
  d.type = h2::FrameType::kData;
  d.stream_id = 1;
  d.payload = {1};
  pair.client_tls->write(h2::serialize_frame(d));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

TEST(ErrorPaths, RstStreamOnUnknownStreamIsHarmless) {
  H2Pair pair;
  pair.run(1);
  pair.client->cancel(9999);
  pair.run(2);
  EXPECT_FALSE(pair.server->dead());
  EXPECT_FALSE(pair.client->dead());
}

TEST(ErrorPaths, RequestWithoutPseudoHeadersGets404Path) {
  H2Pair pair;
  pair.run(1);
  bool got_reset = false;
  h2::ClientConnection::Handlers ch;
  ch.on_reset = [&](std::uint32_t, h2::ErrorCode code) {
    got_reset = code == h2::ErrorCode::kProtocolError;
  };
  pair.client->set_handlers(std::move(ch));

  // ServerApp-less server: install a handler that mimics the app's
  // validation topo.
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList& headers) {
    if (!http::Request::from_h2_headers(headers)) {
      pair.server->send_rst_stream(sid, h2::ErrorCode::kProtocolError);
    }
  };
  pair.server->set_handlers(std::move(sh));

  pair.client->send_request({{"x-not-a-request", "1"}});
  pair.run(2);
  EXPECT_TRUE(got_reset);
  EXPECT_FALSE(pair.client->dead());
}

}  // namespace
}  // namespace h2sim
