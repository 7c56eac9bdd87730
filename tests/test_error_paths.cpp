// Failure-injection tests: protocol violations and corruption must surface
// as clean, local errors — never as silent corruption or hangs.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "h2_fixture.hpp"
#include "hpack/encoder.hpp"
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
  tcp::TcpStack server_stack(loop, sim::Rng(1), net::Topology::kServerNode,
                             [&](net::Packet&& p) {
                               topo.send_from_server(std::move(p));
                             });
  tcp::TcpStack client_stack(loop, sim::Rng(2), net::Topology::client_node(0),
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
  tcp::TcpStack server_stack(loop, sim::Rng(1), net::Topology::kServerNode,
                             [&](net::Packet&& p) {
                               topo.send_from_server(std::move(p));
                             });
  tcp::TcpStack client_stack(loop, sim::Rng(2), net::Topology::client_node(0),
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
  const std::vector<std::uint8_t> payload(100000, 0x0);  // > the 16 KB max
  pair.client_tls->write(h2::serialize_frame({h2::FrameType::kData, 0, 1, payload}));
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
  const std::vector<std::uint8_t> payload(100000, 0x0);  // over the 16 KB max
  pair.client_tls->write(h2::serialize_frame({h2::FrameType::kData, 0, 1, payload}));
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

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

TEST(ErrorPaths, ControlFrameViolationsSendRfcCodes) {
  struct Case {
    const char* what;
    h2::FrameType type;
    std::uint8_t flags;
    std::uint32_t stream_id;
    std::vector<std::uint8_t> payload;
    const char* code;
    bool from_server = false;  // else the client sends it to the server
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
      {"PRIORITY on stream 0 (6.3)", h2::FrameType::kPriority, 0, 0,
       h2::encode_priority({}), "PROTOCOL_ERROR"},
      {"DATA pad length = payload length (6.1)", h2::FrameType::kData,
       h2::flags::kPadded, 1, {3, 0, 0}, "PROTOCOL_ERROR"},
      {"DATA pad length past payload end (6.1)", h2::FrameType::kData,
       h2::flags::kPadded, 1, {200, 1, 2}, "PROTOCOL_ERROR"},
      {"PADDED DATA without Pad Length (6.1)", h2::FrameType::kData,
       h2::flags::kPadded, 1, {}, "PROTOCOL_ERROR"},
      {"HEADERS pad length past payload end (6.2)", h2::FrameType::kHeaders,
       h2::flags::kPadded | h2::flags::kEndHeaders, 1, {5, 0x82},
       "PROTOCOL_ERROR"},
      // A size update to 4097 (0x3f 0xe2 0x1f, 5-bit prefix) opening the
      // block, past the 4096 the server advertised, then :method GET.
      {"HPACK table size update past the advertised 4096 (RFC 7541 6.3)",
       h2::FrameType::kHeaders, h2::flags::kEndHeaders | h2::flags::kEndStream,
       1, {0x3f, 0xe2, 0x1f, 0x82}, "COMPRESSION_ERROR"},
      {"PUSH_PROMISE to a client (8.2)", h2::FrameType::kPushPromise,
       h2::flags::kEndHeaders, 1, {0, 0, 0, 2, 0x82}, "PROTOCOL_ERROR",
       /*from_server=*/true},
      {"DATA on an idle stream (5.1)", h2::FrameType::kData, 0, 3, {1, 2, 3},
       "PROTOCOL_ERROR"},
      {"WINDOW_UPDATE on an idle stream (5.1)", h2::FrameType::kWindowUpdate,
       0, 5, to_vec(h2::encode_window_update(100)), "PROTOCOL_ERROR"},
      {"RST_STREAM on an idle stream (6.4)", h2::FrameType::kRstStream, 0,
       9999, to_vec(h2::encode_rst_stream(h2::ErrorCode::kCancel)),
       "PROTOCOL_ERROR"},
      {"DATA on a stream the client never opened (5.1)", h2::FrameType::kData,
       0, 1, {1, 2, 3}, "PROTOCOL_ERROR", /*from_server=*/true},
      {"WINDOW_UPDATE on a stream the server never opened (5.1)",
       h2::FrameType::kWindowUpdate, 0, 2,
       to_vec(h2::encode_window_update(100)), "PROTOCOL_ERROR",
       /*from_server=*/true},
      {"RST_STREAM on a stream the client never opened (6.4)",
       h2::FrameType::kRstStream, 0, 3,
       to_vec(h2::encode_rst_stream(h2::ErrorCode::kCancel)), "PROTOCOL_ERROR",
       /*from_server=*/true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    obs::Context ctx;
    obs::ScopedContext scope(ctx);
    ctx.tracer.enable(obs::Component::kH2);
    H2Pair pair;
    pair.run(1);
    (c.from_server ? pair.server_tls : pair.client_tls)
        ->write(h2::serialize_frame({c.type, c.flags, c.stream_id, c.payload}));
    pair.run(2);
    EXPECT_TRUE(c.from_server ? pair.client->dead() : pair.server->dead());
    const std::uint32_t receiver =
        c.from_server ? obs::track::kClient : obs::track::kServer;
    const auto& events = ctx.tracer.events();
    const auto it = std::find_if(events.begin(), events.end(), [&](const auto& e) {
      return e.name == "connection-error" && e.pid == receiver;
    });
    if (it == events.end()) {
      ADD_FAILURE() << "no connection-error event at the receiver";
      continue;
    }
    EXPECT_NE(it->args.find(std::string("\"code\": \"") + c.code + "\""),
              std::string::npos)
        << it->args;
  }
}

// RFC 7540 §6.9.2: a SETTINGS_INITIAL_WINDOW_SIZE change that pushes any
// stream's window past 2^31-1 is a connection FLOW_CONTROL_ERROR; the window
// is never left overflowed.
TEST(ErrorPaths, InitialWindowChangeThatOverflowsAStreamIsFlowControlError) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  ctx.tracer.enable(obs::Component::kH2);
  H2Pair pair;
  pair.run(1);
  http::Request get;
  get.authority = "example.com";
  get.path = "/";
  const std::uint32_t sid = pair.client->send_request(get.to_h2_headers());
  pair.run(1);
  h2::Stream* s = pair.server->find_stream(sid);
  ASSERT_NE(s, nullptr);
  const std::int64_t window = s->send_window().available();
  pair.client_tls->write(h2::serialize_frame(
      {h2::FrameType::kWindowUpdate, 0, sid,
       h2::encode_window_update(static_cast<std::uint32_t>(h2::kMaxWindow - window))}));
  pair.run(1);
  ASSERT_FALSE(pair.server->dead());
  ASSERT_EQ(pair.server->find_stream(sid)->send_window().available(), h2::kMaxWindow);
  const h2::SettingsEntry grow[] = {
      {h2::SettingId::kInitialWindowSize, h2::ConnectionConfig{}.initial_window_size + 1}};
  pair.client_tls->write(
      h2::serialize_frame({h2::FrameType::kSettings, 0, 0, h2::encode_settings(grow)}));
  pair.run(1);
  EXPECT_TRUE(pair.server->dead());
  const auto& events = ctx.tracer.events();
  const auto it = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.name == "connection-error" && e.pid == obs::track::kServer;
  });
  ASSERT_NE(it, events.end());
  EXPECT_NE(it->args.find("FLOW_CONTROL_ERROR"), std::string::npos) << it->args;
}

TEST(ErrorPaths, GarbageHeaderBlockIsCompressionError) {
  H2Pair pair;
  pair.run(1);
  const std::vector<std::uint8_t> block = {0xff, 0xff, 0xff, 0xff, 0xff};
  pair.client_tls->write(h2::serialize_frame(  // an invalid HPACK index ladder
      {h2::FrameType::kHeaders, h2::flags::kEndHeaders | h2::flags::kEndStream, 1,
       block}));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());  // COMPRESSION_ERROR closes the connection
}

TEST(ErrorPaths, DataOnStreamZeroIsProtocolError) {
  H2Pair pair;
  pair.run(1);
  const std::vector<std::uint8_t> payload = {1, 2, 3};
  pair.client_tls->write(h2::serialize_frame({h2::FrameType::kData, 0, 0, payload}));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

TEST(ErrorPaths, ZeroWindowUpdateIsProtocolError) {
  H2Pair pair;
  pair.run(1);
  pair.client_tls->write(h2::serialize_frame(
      {h2::FrameType::kWindowUpdate, 0, 0, h2::encode_window_update(0)}));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

TEST(ErrorPaths, UnknownFrameTypesAreIgnored) {
  H2Pair pair;
  pair.run(1);
  const std::vector<std::uint8_t> payload = {9, 9, 9};
  pair.client_tls->write(h2::serialize_frame(
      {static_cast<h2::FrameType>(0xEE), 0, 0, payload}));  // greased/unknown
  pair.run(2);
  EXPECT_FALSE(pair.server->dead());  // §4.1: ignore and discard
}

TEST(ErrorPaths, PushPromiseFromClientIsProtocolError) {
  H2Pair pair;
  pair.run(1);
  const std::vector<std::uint8_t> promised_stream_2 = {0, 0, 0, 2};
  pair.client_tls->write(h2::serialize_frame({h2::FrameType::kPushPromise,
                                              h2::flags::kEndHeaders, 1,
                                              promised_stream_2}));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

TEST(ErrorPaths, InterleavedHeaderBlockIsProtocolError) {
  H2Pair pair;
  pair.run(1);
  // HEADERS without END_HEADERS, then a DATA frame instead of CONTINUATION.
  const std::vector<std::uint8_t> block = {0x82};
  const std::vector<std::uint8_t> payload = {1};
  pair.client_tls->write(
      h2::serialize_frame({h2::FrameType::kHeaders, 0, 1, block}));
  pair.client_tls->write(h2::serialize_frame({h2::FrameType::kData, 0, 1, payload}));
  pair.run(2);
  EXPECT_TRUE(pair.server->dead());
}

// A late RST_STREAM on a stream both ends have closed is tolerated (RFC 7540
// §5.1: a closed stream may still see frames in flight). An idle stream's
// RST_STREAM is a connection error instead (ControlFrameViolations...).
TEST(ErrorPaths, RstStreamOnUnknownStreamIsHarmless) {
  H2Pair pair;
  pair.run(1);
  const std::uint32_t sid = pair.client->send_request({{":method", "GET"}});
  pair.run(1);
  pair.server->send_rst_stream(sid, h2::ErrorCode::kCancel);
  pair.run(1);
  ASSERT_EQ(pair.server->find_stream(sid), nullptr);
  ASSERT_EQ(pair.client->find_stream(sid), nullptr);
  pair.client->cancel(sid);
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

// Tripathi's slow read (PAPERS.md): the peer advertises a 4 KiB stream
// window and never credits it back, while the app keeps producing chunks.
// The server must send no DATA past the window, its stream queue must hold
// exactly what was produced and not sent, and the RST_STREAM flush (the
// paper's Figure 6) must report all of it.
TEST(ErrorPaths, SlowReadPeerNeverGetsDataPastTheStreamWindow) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  ctx.tracer.enable(obs::Component::kH2);
  constexpr std::uint32_t kWindow = 4096;
  constexpr std::size_t kChunk = 1024;
  H2Pair pair;
  // A scripted peer replaces the client connection on the same TLS session:
  // preface and SETTINGS now, one GET later, and never a WINDOW_UPDATE.
  pair.client.reset();
  tls::TlsSession::Callbacks cbs;
  cbs.on_established = [&pair] {
    pair.client_tls->write(h2::client_preface());
    const h2::SettingsEntry small[] = {{h2::SettingId::kInitialWindowSize, kWindow}};
    pair.client_tls->write(
        h2::serialize_frame({h2::FrameType::kSettings, 0, 0, h2::encode_settings(small)}));
  };
  cbs.on_plaintext = [](std::span<const std::uint8_t>) {};  // reads nothing
  pair.client_tls->set_callbacks(std::move(cbs));
  pair.run(1);
  ASSERT_TRUE(pair.server);

  const std::vector<std::uint8_t> body(64 * kChunk, 0x33);
  std::size_t produced = 0;
  std::size_t sent = 0;
  std::function<void()> produce = [&] {
    const bool last = produced + kChunk == body.size();
    pair.server->send_body_chunk(1, std::span(body).subspan(produced, kChunk), last);
    produced += kChunk;
    if (!last) pair.loop.schedule_after(sim::Duration::millis(1), [&] { produce(); });
  };
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList&) {
    pair.server->respond_headers(sid, 200);
    produce();
  };
  pair.server->set_handlers(std::move(sh));
  pair.server->set_frame_tap([&](const h2::FrameView& f, sim::TimePoint) {
    if (f.type != h2::FrameType::kData) return;
    sent += f.payload.size();
    EXPECT_LE(sent, kWindow) << "DATA past the peer's stream window";
  });

  http::Request get;
  get.authority = "example.com";
  get.path = "/slow";
  hpack::Encoder encoder;
  pair.client_tls->write(h2::serialize_frame(
      {h2::FrameType::kHeaders,
       static_cast<std::uint8_t>(h2::flags::kEndHeaders | h2::flags::kEndStream), 1,
       encoder.encode(get.to_h2_headers())}));
  pair.run(1);

  EXPECT_EQ(produced, body.size());
  EXPECT_EQ(sent, kWindow);
  const h2::Stream* s = pair.server->find_stream(1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->queued_bytes(), produced - sent);
  EXPECT_EQ(pair.server->pending_data_bytes(), produced - sent);
  EXPECT_GT(ctx.metrics.counter_value("h2.server.flow_stalls"), 0u);

  pair.client_tls->write(h2::serialize_frame(
      {h2::FrameType::kRstStream, 0, 1, h2::encode_rst_stream(h2::ErrorCode::kCancel)}));
  pair.run(1);
  EXPECT_EQ(pair.server->find_stream(1), nullptr);
  EXPECT_EQ(pair.server->pending_data_bytes(), 0u);
  const auto& events = ctx.tracer.events();
  const auto flush = std::find_if(events.begin(), events.end(), [](const auto& e) {
    return e.name == "rst-flush";
  });
  ASSERT_NE(flush, events.end());
  EXPECT_EQ(flush->args,
            "\"flushed_bytes\": " + std::to_string(body.size() - kWindow));
  EXPECT_FALSE(pair.server->dead());
}

// RFC 7540 §6.9.1: DATA past a stream's advertised window is a stream
// FLOW_CONTROL_ERROR. A scripted peer overruns the server's 4 KiB stream
// window: the server resets that stream alone and tells the app, as a peer
// reset would, and still credits the connection window for every byte, the
// overrunning frame included.
TEST(ErrorPaths, DataPastTheStreamWindowResetsTheStream) {
  constexpr std::uint32_t kWindow = 4096;
  constexpr std::size_t kFrame = 8192;
  h2::ConnectionConfig server_cfg;
  server_cfg.initial_window_size = kWindow;
  H2Pair pair(server_cfg);
  // A scripted peer replaces the client connection on the same TLS session.
  pair.client.reset();
  tls::TlsSession::Callbacks cbs;
  cbs.on_established = [&pair] {
    pair.client_tls->write(h2::client_preface());
    pair.client_tls->write(h2::serialize_frame({h2::FrameType::kSettings, 0, 0, {}}));
  };
  cbs.on_plaintext = [](std::span<const std::uint8_t>) {};
  pair.client_tls->set_callbacks(std::move(cbs));
  pair.run(1);
  ASSERT_TRUE(pair.server);

  std::vector<h2::ErrorCode> app_resets;
  h2::ServerConnection::Handlers sh;
  sh.on_stream_reset = [&](std::uint32_t sid, h2::ErrorCode code) {
    EXPECT_EQ(sid, 1u);
    app_resets.push_back(code);
  };
  pair.server->set_handlers(std::move(sh));
  std::vector<h2::ErrorCode> rst_sent;
  std::vector<std::uint32_t> conn_credit;
  pair.server->set_frame_tap([&](const h2::FrameView& f, sim::TimePoint) {
    if (f.type == h2::FrameType::kRstStream) {
      EXPECT_EQ(f.stream_id, 1u);
      rst_sent.push_back(*h2::parse_rst_stream(f.payload));
    }
    if (f.type == h2::FrameType::kWindowUpdate && f.stream_id == 0) {
      conn_credit.push_back(*h2::parse_window_update(f.payload));
    }
  });

  // A request that stays open for a body, then one DATA frame twice the
  // window and three more on the stream the server has reset by then: 32 KiB
  // in all, the server's connection WINDOW_UPDATE batch.
  http::Request post;
  post.authority = "example.com";
  post.path = "/upload";
  hpack::Encoder encoder;
  pair.client_tls->write(h2::serialize_frame(
      {h2::FrameType::kHeaders, h2::flags::kEndHeaders, 1,
       encoder.encode(post.to_h2_headers())}));
  const std::vector<std::uint8_t> data(kFrame, 0x44);
  for (int i = 0; i < 4; ++i) {
    pair.client_tls->write(h2::serialize_frame({h2::FrameType::kData, 0, 1, data}));
  }
  pair.run(1);

  EXPECT_FALSE(pair.server->dead());
  EXPECT_EQ(pair.server->find_stream(1), nullptr);
  EXPECT_EQ(rst_sent, std::vector<h2::ErrorCode>{h2::ErrorCode::kFlowControlError});
  EXPECT_EQ(app_resets, std::vector<h2::ErrorCode>{h2::ErrorCode::kFlowControlError});
  EXPECT_EQ(conn_credit, std::vector<std::uint32_t>{4 * kFrame});
}

// The RST_STREAM codes the server sends after the client's PRIORITY frame
// with `payload` on an open stream; the connection must survive.
std::vector<h2::ErrorCode> resets_after_priority(
    std::vector<std::uint8_t> payload) {
  H2Pair pair;
  pair.run(1);
  http::Request get;
  get.authority = "example.com";
  get.path = "/";
  const std::uint32_t sid = pair.client->send_request(get.to_h2_headers());
  EXPECT_EQ(sid, 1u);  // the stream a payload below may name
  pair.run(1);
  EXPECT_NE(pair.server->find_stream(sid), nullptr);
  std::vector<h2::ErrorCode> rst_sent;
  pair.server->set_frame_tap([&](const h2::FrameView& f, sim::TimePoint) {
    if (f.type != h2::FrameType::kRstStream) return;
    EXPECT_EQ(f.stream_id, sid);
    rst_sent.push_back(*h2::parse_rst_stream(f.payload));
  });
  pair.client_tls->write(
      h2::serialize_frame({h2::FrameType::kPriority, 0, sid, std::move(payload)}));
  pair.run(1);
  EXPECT_FALSE(pair.server->dead());
  EXPECT_EQ(pair.server->find_stream(sid), nullptr);
  return rst_sent;
}

// RFC 7540 §6.3: a PRIORITY frame whose length is not 5 is a stream
// FRAME_SIZE_ERROR.
TEST(ErrorPaths, ShortPriorityResetsTheStream) {
  EXPECT_EQ(resets_after_priority({0, 0, 0, 0}),
            std::vector<h2::ErrorCode>{h2::ErrorCode::kFrameSizeError});
}

// RFC 7540 §5.3.1: a stream cannot depend on itself; that is a stream
// PROTOCOL_ERROR.
TEST(ErrorPaths, PriorityOnItselfResetsTheStream) {
  h2::PriorityPayload self;
  self.dependency = 1;
  EXPECT_EQ(resets_after_priority(h2::encode_priority(self)),
            std::vector<h2::ErrorCode>{h2::ErrorCode::kProtocolError});
}

// RFC 7540 §5.3.1 on a HEADERS frame: a request whose PRIORITY fields make
// its stream depend on itself is a stream PROTOCOL_ERROR. The server resets
// that stream without passing the request on and keeps the connection. It
// still decodes the header block, so the next request's HPACK references
// resolve.
TEST(ErrorPaths, SelfDependentHeadersResetsTheStream) {
  H2Pair pair;
  // A scripted peer replaces the client connection on the same TLS session.
  pair.client.reset();
  tls::TlsSession::Callbacks cbs;
  cbs.on_established = [&pair] {
    pair.client_tls->write(h2::client_preface());
    pair.client_tls->write(h2::serialize_frame({h2::FrameType::kSettings, 0, 0, {}}));
  };
  cbs.on_plaintext = [](std::span<const std::uint8_t>) {};
  pair.client_tls->set_callbacks(std::move(cbs));
  pair.run(1);
  ASSERT_TRUE(pair.server);

  std::vector<std::string> requests;  // "<stream> <path>"
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList& headers) {
    const auto req = http::Request::from_h2_headers(headers);
    requests.push_back(std::to_string(sid) + " " + (req ? req->path : "?"));
  };
  pair.server->set_handlers(std::move(sh));
  std::vector<std::pair<std::uint32_t, h2::ErrorCode>> rst_sent;
  pair.server->set_frame_tap([&](const h2::FrameView& f, sim::TimePoint) {
    if (f.type == h2::FrameType::kRstStream) {
      rst_sent.emplace_back(f.stream_id, *h2::parse_rst_stream(f.payload));
    }
  });

  hpack::Encoder encoder;
  http::Request get;
  get.authority = "example.com";
  get.path = "/self";
  h2::PriorityPayload self;
  self.dependency = 1;
  std::vector<std::uint8_t> payload = h2::encode_priority(self);
  const std::vector<std::uint8_t> block = encoder.encode(get.to_h2_headers());
  payload.insert(payload.end(), block.begin(), block.end());
  constexpr std::uint8_t kGet = h2::flags::kEndHeaders | h2::flags::kEndStream;
  pair.client_tls->write(h2::serialize_frame(
      {h2::FrameType::kHeaders, kGet | h2::flags::kPriority, 1, payload}));
  get.path = "/next";
  pair.client_tls->write(h2::serialize_frame(
      {h2::FrameType::kHeaders, kGet, 3, encoder.encode(get.to_h2_headers())}));
  pair.run(1);

  EXPECT_FALSE(pair.server->dead());
  EXPECT_EQ(rst_sent, (std::vector<std::pair<std::uint32_t, h2::ErrorCode>>{
                          {1, h2::ErrorCode::kProtocolError}}));
  EXPECT_EQ(requests, std::vector<std::string>{"3 /next"});
  EXPECT_EQ(pair.server->find_stream(1), nullptr);
}

}  // namespace
}  // namespace h2sim
