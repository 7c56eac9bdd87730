#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "h2/flow_control.hpp"
#include "h2/stream.hpp"

namespace h2sim::h2 {
namespace {

TEST(StreamState, ClientRequestLifecycle) {
  Stream s(1, 65535, 65535);
  EXPECT_EQ(s.state(), StreamState::kIdle);
  // Client sends HEADERS with END_STREAM (a GET): half-closed (local).
  EXPECT_TRUE(s.on_send_headers(true));
  EXPECT_EQ(s.state(), StreamState::kHalfClosedLocal);
  // Server response headers...
  EXPECT_TRUE(s.on_recv_headers(false));
  EXPECT_EQ(s.state(), StreamState::kHalfClosedLocal);
  // ...then DATA with END_STREAM closes.
  EXPECT_TRUE(s.on_recv_data(true));
  EXPECT_EQ(s.state(), StreamState::kClosed);
}

TEST(StreamState, ServerSideLifecycle) {
  Stream s(1, 65535, 65535);
  EXPECT_TRUE(s.on_recv_headers(true));  // GET arrives
  EXPECT_EQ(s.state(), StreamState::kHalfClosedRemote);
  EXPECT_TRUE(s.on_send_headers(false));  // response headers
  EXPECT_TRUE(s.can_send_data());
  EXPECT_TRUE(s.on_send_data_end());
  EXPECT_EQ(s.state(), StreamState::kClosed);
}

TEST(StreamState, RstClosesFromAnyState) {
  Stream s(5, 65535, 65535);
  s.on_send_headers(false);
  s.on_recv_rst();
  EXPECT_TRUE(s.closed());

  // Every state a stream leaves idle for (RFC 7540 §5.1: RST_STREAM is never
  // sent on an idle stream) closes on a sent or received reset.
  const std::vector<void (*)(Stream&)> openers = {
      [](Stream& st) { st.on_send_headers(false); },
      [](Stream& st) { st.on_send_headers(true); },
      [](Stream& st) { st.on_recv_headers(true); },
  };
  for (const auto open : openers) {
    Stream t(7, 65535, 65535);
    open(t);
    t.on_send_rst();
    EXPECT_TRUE(t.closed());
    Stream u(9, 65535, 65535);
    open(u);
    u.on_recv_rst();
    EXPECT_TRUE(u.closed());
  }
}

TEST(StreamStateDeathTest, IllegalTransitionAssertsInDebug) {
  Stream s(7, 65535, 65535);
  EXPECT_DEBUG_DEATH(s.on_send_rst(), "legal_transition");
}

TEST(StreamState, DataInIdleRejected) {
  Stream s(1, 65535, 65535);
  EXPECT_FALSE(s.can_recv_data());
  EXPECT_FALSE(s.on_recv_data(false));
}

TEST(StreamQueue, EnqueueDequeue) {
  Stream s(1, 65535, 65535);
  const std::vector<std::uint8_t> body{1, 2, 3, 4, 5, 6, 7};
  const std::span<const std::uint8_t> all(body);
  s.enqueue(all.first(5), false);
  s.enqueue(all.subspan(5), true);  // continues the queued window
  EXPECT_EQ(s.queued_bytes(), 7u);
  EXPECT_TRUE(s.end_stream_queued());
  EXPECT_TRUE(s.has_pending_output());

  const auto chunk = s.take(3);
  EXPECT_TRUE(std::ranges::equal(chunk, std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(chunk.data(), body.data()) << "the queue borrows, it does not copy";
  EXPECT_EQ(s.queued_bytes(), 4u);
  const auto rest = s.take(100);
  EXPECT_TRUE(std::ranges::equal(rest, std::vector<std::uint8_t>{4, 5, 6, 7}));
  EXPECT_EQ(rest.data(), body.data() + 3);
  EXPECT_TRUE(s.end_stream_queued());  // END_STREAM still pending
  EXPECT_TRUE(s.take(10).empty());
}

TEST(StreamQueue, DrainedQueueStartsANewWindow) {
  Stream s(1, 65535, 65535);
  const std::vector<std::uint8_t> a(10, 1);
  const std::vector<std::uint8_t> b(6, 2);
  s.enqueue(a, false);
  EXPECT_EQ(s.take(10).size(), 10u);
  EXPECT_FALSE(s.has_pending_output());
  s.enqueue(b, true);  // an empty queue may borrow from any buffer
  const auto out = s.take(4);
  EXPECT_EQ(out.data(), b.data());
  EXPECT_EQ(s.queued_bytes(), 2u);
}

TEST(StreamQueue, FlushDiscardsEverything) {
  Stream s(1, 65535, 65535);
  const std::vector<std::uint8_t> body(5000, 9);
  s.enqueue(body, true);
  s.take(1000);
  s.flush_queue();  // the paper's RST_STREAM server-side flush
  EXPECT_EQ(s.queued_bytes(), 0u);
  EXPECT_FALSE(s.end_stream_queued());
  EXPECT_FALSE(s.has_pending_output());
  EXPECT_TRUE(s.take(10).empty());
}

TEST(FlowWindow, ConsumeAndReplenish) {
  FlowWindow w(1000);
  EXPECT_TRUE(w.can_send(1000));
  EXPECT_FALSE(w.can_send(1001));
  w.consume(600);
  EXPECT_EQ(w.available(), 400);
  EXPECT_TRUE(w.replenish(600));
  EXPECT_EQ(w.available(), 1000);
}

TEST(FlowWindow, OverflowDetected) {
  FlowWindow w(kMaxWindow - 10);
  EXPECT_FALSE(w.replenish(100));
  EXPECT_EQ(w.available(), kMaxWindow - 10) << "a refused increase changes nothing";
  EXPECT_FALSE(w.adjust(11));
  EXPECT_TRUE(w.replenish(10));
  EXPECT_EQ(w.available(), kMaxWindow);
}

TEST(FlowWindow, CanGoNegativeViaAdjust) {
  FlowWindow w(100);
  w.adjust(-200);
  EXPECT_EQ(w.available(), -100);
  EXPECT_FALSE(w.can_send(1));
  w.adjust(200);
  EXPECT_TRUE(w.can_send(100));
}

TEST(StreamConsumedAccounting, BatchesWindowUpdates) {
  Stream s(1, 65535, 131072);
  s.note_consumed(1000);
  s.note_consumed(500);
  EXPECT_EQ(s.consumed_unacked(), 1500u);
  s.clear_consumed();
  EXPECT_EQ(s.consumed_unacked(), 0u);
}

}  // namespace
}  // namespace h2sim::h2
