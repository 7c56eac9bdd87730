#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "h2_fixture.hpp"
#include "http/message.hpp"
#include "obs/context.hpp"

namespace h2sim::h2 {
namespace {

using h2sim::testing::H2Pair;

hpack::HeaderList get(const std::string& path) {
  http::Request r;
  r.authority = "example.com";
  r.path = path;
  return r.to_h2_headers();
}

TEST(H2Connection, SettingsHandshakeCompletes) {
  H2Pair pair;
  pair.run(1);
  ASSERT_TRUE(pair.client);
  ASSERT_TRUE(pair.server);
  EXPECT_TRUE(pair.client->ready());
  EXPECT_TRUE(pair.server->ready());
  EXPECT_FALSE(pair.client->dead());
}

TEST(H2Connection, RequestResponseRoundTrip) {
  H2Pair pair;
  pair.run(1);

  std::vector<std::uint8_t> body;
  bool ended = false;
  h2::ClientConnection::Handlers ch;
  ch.on_response_data = [&](std::uint32_t, std::span<const std::uint8_t> b, bool end) {
    body.insert(body.end(), b.begin(), b.end());
    ended |= end;
  };
  pair.client->set_handlers(std::move(ch));

  // The stream queue borrows a body: it must outlive the transfer.
  const std::vector<std::uint8_t> data(5000, 0x5a);
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList& headers) {
    auto req = http::Request::from_h2_headers(headers);
    ASSERT_TRUE(req.has_value());
    EXPECT_EQ(req->path, "/hello");
    pair.server->respond_headers(sid, 200);
    pair.server->send_body_chunk(sid, data, true);
  };
  pair.server->set_handlers(std::move(sh));

  const std::uint32_t sid = pair.client->send_request(get("/hello"));
  EXPECT_EQ(sid, 1u);
  pair.run(5);
  EXPECT_EQ(body.size(), 5000u);
  EXPECT_TRUE(ended);
}

TEST(H2Connection, StreamIdsIncreaseByTwo) {
  H2Pair pair;
  pair.run(1);
  EXPECT_EQ(pair.client->send_request(get("/a")), 1u);
  EXPECT_EQ(pair.client->send_request(get("/b")), 3u);
  EXPECT_EQ(pair.client->send_request(get("/c")), 5u);
}

TEST(H2Connection, RoundRobinInterleavesStreams) {
  h2::ConnectionConfig scfg;
  scfg.scheduler = h2::SchedulerKind::kRoundRobin;
  scfg.data_chunk_size = 1000;
  H2Pair pair(scfg);
  pair.run(1);

  std::vector<std::uint32_t> data_order;
  h2::ClientConnection::Handlers ch;
  ch.on_response_data = [&](std::uint32_t sid, std::span<const std::uint8_t>, bool) {
    data_order.push_back(sid);
  };
  pair.client->set_handlers(std::move(ch));

  const std::vector<std::uint8_t> body(8000, 1);
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList&) {
    pair.server->respond_headers(sid, 200);
    // Enqueue everything at once so the scheduler decides interleaving.
    pair.server->send_body_chunk(sid, body, true);
  };
  pair.server->set_handlers(std::move(sh));

  pair.client->send_request(get("/a"));
  pair.client->send_request(get("/b"));
  pair.run(5);

  // Both streams' frames should alternate at least once.
  bool interleaved = false;
  for (std::size_t i = 2; i < data_order.size(); ++i) {
    if (data_order[i] != data_order[i - 1]) interleaved = true;
  }
  EXPECT_TRUE(interleaved);
}

TEST(H2Connection, SequentialSchedulerFinishesFirstStreamFirst) {
  h2::ConnectionConfig scfg;
  scfg.scheduler = h2::SchedulerKind::kSequential;
  scfg.data_chunk_size = 1000;
  H2Pair pair(scfg);
  pair.run(1);

  std::vector<std::uint32_t> data_order;
  h2::ClientConnection::Handlers ch;
  ch.on_response_data = [&](std::uint32_t sid, std::span<const std::uint8_t>, bool) {
    data_order.push_back(sid);
  };
  pair.client->set_handlers(std::move(ch));

  int pending = 0;
  const std::vector<std::uint8_t> body1(8000, 1);
  const std::vector<std::uint8_t> body3(8000, 2);
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList&) {
    pair.server->respond_headers(sid, 200);
    ++pending;
    if (pending == 2) {
      // Enqueue both bodies only once both requests are in, so the
      // scheduler genuinely chooses.
      pair.server->send_body_chunk(1, body1, true);
      pair.server->send_body_chunk(3, body3, true);
    }
  };
  pair.server->set_handlers(std::move(sh));

  pair.client->send_request(get("/a"));
  pair.client->send_request(get("/b"));
  pair.run(5);

  ASSERT_FALSE(data_order.empty());
  // All frames of stream 1 strictly precede all frames of stream 3.
  bool seen3 = false;
  for (std::uint32_t sid : data_order) {
    if (sid == 3) seen3 = true;
    if (seen3) {
      EXPECT_EQ(sid, 3u);
    }
  }
}

TEST(H2Connection, RstStreamFlushesServerQueue) {
  h2::ConnectionConfig scfg;
  scfg.data_chunk_size = 1000;
  // Tiny watermark so the queue drains slowly and the reset catches data
  // still queued.
  scfg.tcp_send_watermark = 2000;
  H2Pair pair(scfg);
  pair.run(1);

  std::size_t received = 0;
  h2::ClientConnection::Handlers ch;
  ch.on_response_data = [&](std::uint32_t, std::span<const std::uint8_t> b, bool) {
    received += b.size();
  };
  pair.client->set_handlers(std::move(ch));

  bool server_saw_reset = false;
  const std::vector<std::uint8_t> body(500000, 1);
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList&) {
    pair.server->respond_headers(sid, 200);
    pair.server->send_body_chunk(sid, body, true);
  };
  sh.on_stream_reset = [&](std::uint32_t, h2::ErrorCode) { server_saw_reset = true; };
  pair.server->set_handlers(std::move(sh));

  const std::uint32_t sid = pair.client->send_request(get("/big"));
  pair.run(0.2);
  pair.client->cancel(sid);
  pair.run(5);
  EXPECT_TRUE(server_saw_reset);
  EXPECT_LT(received, 500000u);  // the flush prevented full delivery
  EXPECT_FALSE(pair.client->dead());
  EXPECT_FALSE(pair.server->dead());
}

TEST(H2Connection, PingEchoed) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  H2Pair pair;
  pair.run(1);
  const std::uint64_t before = ctx.metrics.counter_value("h2.client.frames_received");
  pair.client->send_ping();
  pair.run(1);
  EXPECT_EQ(ctx.metrics.counter_value("h2.client.frames_received"), before + 1);
  EXPECT_FALSE(pair.client->dead());
}

TEST(H2Connection, LargeHeadersUseContinuation) {
  H2Pair pair;
  pair.run(1);

  hpack::HeaderList got;
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList& headers) {
    got = headers;
    pair.server->respond_headers(sid, 200, {}, true);
  };
  pair.server->set_handlers(std::move(sh));

  hpack::HeaderList headers = get("/big-headers");
  // ~40 KB of uncompressible header data: must exceed 16384 after HPACK.
  for (int i = 0; i < 40; ++i) {
    std::string value;
    for (int j = 0; j < 1000; ++j) {
      value.push_back(static_cast<char>('A' + (i * 7 + j * 13) % 26));
    }
    headers.push_back({"x-custom-" + std::to_string(i), value});
  }
  pair.client->send_request(headers);
  pair.run(5);
  EXPECT_EQ(got.size(), headers.size());
  EXPECT_EQ(got, headers);
}

// Neither end pushes. The client's SETTINGS advertise ENABLE_PUSH=0, so a
// PUSH_PROMISE from the server is a connection PROTOCOL_ERROR (§8.2).
TEST(H2Connection, PushRefusedWhenDisabled) {
  H2Pair pair;
  std::optional<std::uint32_t> enable_push;
  pair.client->set_frame_tap([&](const h2::FrameView& f, sim::TimePoint) {
    if (f.type != h2::FrameType::kSettings || f.has_flag(h2::flags::kAck)) return;
    const auto entries = h2::parse_settings(f.payload);
    ASSERT_TRUE(entries);
    for (const h2::SettingsEntry& e : *entries) {
      if (e.id == h2::SettingId::kEnablePush) enable_push = e.value;
    }
  });
  pair.run(1);
  EXPECT_EQ(enable_push, 0u);
  ASSERT_FALSE(pair.client->dead());

  // Promised stream 2, header block ":method: GET", written past the server's
  // connection (which has no way to push).
  const std::vector<std::uint8_t> payload = {0, 0, 0, 2, 0x82};
  pair.server_tls->write(h2::serialize_frame(
      {h2::FrameType::kPushPromise, h2::flags::kEndHeaders, 1, payload}));
  pair.run(1);
  EXPECT_TRUE(pair.client->dead());
}

TEST(H2Connection, GoawaySurfacesToClient) {
  H2Pair pair;
  pair.run(1);
  bool goaway = false;
  h2::ClientConnection::Handlers ch;
  ch.on_goaway = [&](const GoawayPayload& g) {
    goaway = true;
    EXPECT_EQ(g.error, ErrorCode::kNoError);
  };
  pair.client->set_handlers(std::move(ch));
  pair.server->send_goaway(ErrorCode::kNoError, "bye");
  pair.run(1);
  EXPECT_TRUE(goaway);
}

TEST(H2Connection, FlowControlWindowLimitsBurst) {
  h2::ConnectionConfig scfg;
  scfg.data_chunk_size = 16384;
  h2::ConnectionConfig ccfg;
  ccfg.initial_window_size = 20000;      // tight stream window
  ccfg.connection_window_bonus = 1 << 20;
  H2Pair pair(scfg, ccfg);
  pair.run(1);

  std::size_t received = 0;
  h2::ClientConnection::Handlers ch;
  ch.on_response_data = [&](std::uint32_t, std::span<const std::uint8_t> b, bool) {
    received += b.size();
  };
  pair.client->set_handlers(std::move(ch));

  const std::vector<std::uint8_t> body(100000, 3);
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList&) {
    pair.server->respond_headers(sid, 200);
    pair.server->send_body_chunk(sid, body, true);
  };
  pair.server->set_handlers(std::move(sh));
  pair.client->send_request(get("/windowed"));
  pair.run(10);
  // Delivery completes because the client's batched WINDOW_UPDATEs keep the
  // 20 KB window refilled.
  EXPECT_EQ(received, 100000u);
}

TEST(H2Connection, WindowUpdateBatchConfigurable) {
  h2::ConnectionConfig scfg;
  h2::ConnectionConfig ccfg;
  ccfg.window_update_batch = 4096;  // chatty client
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  H2Pair chatty(scfg, ccfg);
  chatty.run(1);
  const std::vector<std::uint8_t> body(100000, 1);
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList&) {
    chatty.server->respond_headers(sid, 200);
    chatty.server->send_body_chunk(sid, body, true);
  };
  chatty.server->set_handlers(std::move(sh));
  chatty.client->send_request(get("/dl"));
  chatty.run(10);
  // ~100 KB at a 4 KiB credit cadence: >= 20 client frames beyond setup.
  EXPECT_GE(ctx.metrics.counter_value("h2.client.frames_sent"), 20u);
}

// RFC 7540 §6.1: a PADDED DATA frame hands only its body to the application,
// but its whole payload, Pad Length byte and padding included, is flow
// controlled and so credited back.
TEST(H2Connection, PaddedDataDeliversBodyAndCreditsWholePayload) {
  h2::ConnectionConfig ccfg;
  ccfg.window_update_batch = 1;  // credit each DATA frame as it arrives
  H2Pair pair({}, ccfg);
  pair.run(1);
  std::uint32_t sid = 0;
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t id, const hpack::HeaderList&) {
    sid = id;
    pair.server->respond_headers(id, 200);
  };
  pair.server->set_handlers(std::move(sh));
  std::vector<std::uint8_t> body;
  h2::ClientConnection::Handlers ch;
  ch.on_response_data = [&](std::uint32_t, std::span<const std::uint8_t> b, bool) {
    body.insert(body.end(), b.begin(), b.end());
  };
  pair.client->set_handlers(std::move(ch));
  std::vector<std::uint32_t> credits;  // connection-level WINDOW_UPDATEs
  pair.client->set_frame_tap([&](const h2::FrameView& f, sim::TimePoint) {
    if (f.type == h2::FrameType::kWindowUpdate && f.stream_id == 0) {
      credits.push_back(*h2::parse_window_update(f.payload));
    }
  });
  pair.client->send_request(get("/padded"));
  pair.run(1);
  ASSERT_NE(sid, 0u);

  // Pad Length 10, a 3-byte body, then 10 bytes of padding: 14 bytes.
  std::vector<std::uint8_t> payload = {10, 'a', 'b', 'c'};
  payload.resize(14, 0xee);
  pair.server_tls->write(
      h2::serialize_frame({h2::FrameType::kData, h2::flags::kPadded, sid, payload}));
  pair.run(1);
  EXPECT_EQ(body, (std::vector<std::uint8_t>{'a', 'b', 'c'}));
  EXPECT_EQ(credits, std::vector<std::uint32_t>{14});
  EXPECT_FALSE(pair.client->dead());
}

TEST(H2Connection, StatsCountFrames) {
  obs::Context ctx;
  obs::ScopedContext scope(ctx);
  const auto count = [&ctx](const std::string& name) {
    return ctx.metrics.counter_value(name);
  };
  H2Pair pair;
  pair.run(1);
  const std::uint64_t setup_frames = count("h2.server.frames_sent");
  const std::vector<std::uint8_t> body(3000, 1);
  h2::ServerConnection::Handlers sh;
  sh.on_request = [&](std::uint32_t sid, const hpack::HeaderList&) {
    pair.server->respond_headers(sid, 200);
    pair.server->send_body_chunk(sid, body, true);
  };
  pair.server->set_handlers(std::move(sh));
  pair.client->send_request(get("/stats"));
  pair.run(5);
  // HEADERS, then 3000 bytes in 2048-byte DATA chunks.
  EXPECT_EQ(count("h2.server.frames_sent") - setup_frames, 3u);
  EXPECT_EQ(count("h2.server.data_bytes_sent"), 3000u);
  EXPECT_GE(count("h2.client.frames_sent"), 3u);  // SETTINGS, WU, HEADERS...
  EXPECT_EQ(count("h2.server.streams_opened"), 1u);
}

}  // namespace
}  // namespace h2sim::h2
