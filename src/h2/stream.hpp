#pragma once

#include <cstdint>
#include <span>

#include "h2/flow_control.hpp"
#include "h2/frame.hpp"

namespace h2sim::h2 {

/// RFC 7540 §5.1 stream states. Neither end ever pushes, so no stream is
/// reserved.
enum class StreamState {
  kIdle,
  kOpen,
  kHalfClosedLocal,
  kHalfClosedRemote,
  kClosed,
};

const char* to_string(StreamState s);

/// Per-stream bookkeeping: state machine, flow windows, and the send-side
/// data queue. The queue is the simulated "server queue" of the paper's
/// Figure 3: object segments wait here until the multiplexing scheduler
/// picks them, and an RST_STREAM flushes them (Figure 6). It copies nothing.
/// It is a window [taken, queued) over bytes the caller keeps alive: an
/// enqueue onto an empty queue starts a window, and one onto a non-empty
/// queue must begin exactly where the window ends, extending it.
///
/// Debug builds assert that every state change is an RFC 7540 §5.1
/// transition and that the window never starts before the last taken byte
/// nor ends past the last enqueued one; FlowWindow asserts the signed
/// 31-bit range of the flow windows.
class Stream {
 public:
  Stream(std::uint32_t id, std::int64_t send_window, std::int64_t recv_window)
      : id_(id), send_window_(send_window), recv_window_(recv_window) {}

  std::uint32_t id() const { return id_; }
  StreamState state() const { return state_; }
  bool closed() const { return state_ == StreamState::kClosed; }

  // --- State transitions; return false on a protocol violation ---
  bool on_send_headers(bool end_stream);
  bool on_recv_headers(bool end_stream);
  bool on_send_data_end();  // END_STREAM on a sent DATA frame
  bool on_recv_data(bool end_stream);
  void on_send_rst() { set_state(StreamState::kClosed); }
  void on_recv_rst() { set_state(StreamState::kClosed); }

  bool can_recv_data() const {
    return state_ == StreamState::kOpen || state_ == StreamState::kHalfClosedLocal;
  }
  bool can_send_data() const {
    return state_ == StreamState::kOpen || state_ == StreamState::kHalfClosedRemote;
  }

  // --- Send queue ---
  /// Queues `bytes` without copying them: they must stay valid until they
  /// are taken or the queue is flushed. On a non-empty queue they must start
  /// where the queued bytes end (the next bytes of the same buffer).
  void enqueue(std::span<const std::uint8_t> bytes, bool end_stream);
  /// Removes up to n bytes from the queue front and returns them: a
  /// sub-span of the enqueued bytes.
  std::span<const std::uint8_t> take(std::size_t n);
  void flush_queue();  // RST_STREAM: drop the window and END_STREAM
  std::size_t queued_bytes() const {
    return static_cast<std::size_t>(queued_ - taken_);
  }
  bool end_stream_queued() const { return end_queued_; }
  bool has_pending_output() const { return taken_ != queued_ || end_queued_; }

  FlowWindow& send_window() { return send_window_; }
  FlowWindow& recv_window() { return recv_window_; }

  /// Received-but-not-yet-credited bytes (window update batching).
  void note_consumed(std::size_t n) { consumed_unacked_ += n; }
  std::size_t consumed_unacked() const { return consumed_unacked_; }
  void clear_consumed() { consumed_unacked_ = 0; }

 private:
  void set_state(StreamState next);

  std::uint32_t id_;
  StreamState state_ = StreamState::kIdle;
  FlowWindow send_window_;
  FlowWindow recv_window_;
  // The queued window [taken_, queued_) of the caller's bytes; both null
  // until the first enqueue.
  const std::uint8_t* taken_ = nullptr;
  const std::uint8_t* queued_ = nullptr;
  bool end_queued_ = false;
  std::size_t consumed_unacked_ = 0;
};

}  // namespace h2sim::h2
