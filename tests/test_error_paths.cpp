// Failure-injection tests: protocol violations and corruption must surface
// as clean, local errors — never as silent corruption or hangs.

#include <gtest/gtest.h>

#include <algorithm>

#include "h2_fixture.hpp"
#include "http/message.hpp"
#include "obs/context.hpp"
#include "tls/record.hpp"

namespace h2sim {
namespace {

using h2sim::testing::H2Pair;

TEST(ErrorPaths, TlsDetectsCorruptedCiphertext) {
  // Flip one payload byte in flight: the record MAC must fail and the
  // session must abort rather than deliver garbage.
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
  bool server_aborted = false;
  bool got_plaintext = false;
  server_stack.listen(443, [&](tcp::TcpConnection& c) {
    server_tls = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kServer);
    tls::TlsSession::Callbacks cbs;
    cbs.on_plaintext = [&](std::span<const std::uint8_t>) { got_plaintext = true; };
    cbs.on_aborted = [&](std::string_view) { server_aborted = true; };
    server_tls->set_callbacks(std::move(cbs));
  });

  tcp::TcpConnection& conn = client_stack.connect(net::Topology::kServerNode, 443);
  tls::TlsSession client_tls(conn, tls::TlsSession::Role::kClient);

  // Corrupt the 4th client->server payload packet (application data; the
  // first three carry the handshake).
  int payload_count = 0;
  class Corruptor : public net::PacketPolicy {
   public:
    int* counter;
    net::Decision on_packet(const net::Packet& p, net::Direction dir,
                            sim::TimePoint) override {
      if (dir == net::Direction::kClientToServer && !p.payload.empty()) {
        ++*counter;
        if (*counter == 4) {
          // The middlebox API is non-mutating; corrupt via const_cast to
          // simulate in-flight bit rot (test-only).
          auto& mutable_packet = const_cast<net::Packet&>(p);
          mutable_packet.payload[mutable_packet.payload.size() / 2] ^= 0xff;
        }
      }
      return net::Decision::forward();
    }
  } corruptor;
  corruptor.counter = &payload_count;
  topo.middlebox().set_policy(&corruptor);

  tls::TlsSession::Callbacks ccbs;
  ccbs.on_established = [&] {
    std::vector<std::uint8_t> msg(5000, 0x61);
    client_tls.write(msg);
  };
  client_tls.set_callbacks(std::move(ccbs));

  loop.run(sim::TimePoint::origin() + sim::Duration::seconds(10));
  EXPECT_TRUE(server_aborted);  // bad_record_mac semantics
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
