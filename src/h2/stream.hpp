#pragma once

#include <cstdint>
#include <span>

#include "h2/flow_control.hpp"
#include "h2/frame.hpp"
#include "sim/byte_queue.hpp"

namespace h2sim::h2 {

/// RFC 7540 §5.1 stream states.
enum class StreamState {
  kIdle,
  kReservedLocal,
  kReservedRemote,
  kOpen,
  kHalfClosedLocal,
  kHalfClosedRemote,
  kClosed,
};

const char* to_string(StreamState s);

/// Per-stream bookkeeping: state machine, flow windows, and the send-side
/// data queue. The queue is the simulated "server queue" of the paper's
/// Figure 3 — object segments wait here until the multiplexing scheduler
/// picks them, and an RST_STREAM flushes them (Figure 6).
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
  void on_send_rst() { state_ = StreamState::kClosed; }
  void on_recv_rst() { state_ = StreamState::kClosed; }
  bool on_send_push_promise();  // transitions a new stream to reserved-local
  bool on_recv_push_promise();

  bool can_recv_data() const {
    return state_ == StreamState::kOpen || state_ == StreamState::kHalfClosedLocal;
  }
  bool can_send_data() const {
    return state_ == StreamState::kOpen || state_ == StreamState::kHalfClosedRemote;
  }

  // --- Send queue ---
  void enqueue(std::span<const std::uint8_t> bytes, bool end_stream);
  /// Removes up to n bytes from the queue front and returns them, borrowed
  /// from the queue: the span stays valid until the next enqueue() or
  /// flush_queue().
  std::span<const std::uint8_t> take(std::size_t n);
  void flush_queue();  // RST_STREAM: discard everything pending
  std::size_t queued_bytes() const { return queue_.size(); }
  bool end_stream_queued() const { return end_queued_; }
  bool has_pending_output() const { return !queue_.empty() || end_queued_; }

  FlowWindow& send_window() { return send_window_; }
  FlowWindow& recv_window() { return recv_window_; }

  /// Received-but-not-yet-credited bytes (window update batching).
  void note_consumed(std::size_t n) { consumed_unacked_ += n; }
  std::size_t consumed_unacked() const { return consumed_unacked_; }
  void clear_consumed() { consumed_unacked_ = 0; }

  std::uint8_t weight = 16;  // from PRIORITY frames; informational

 private:
  std::uint32_t id_;
  StreamState state_ = StreamState::kIdle;
  FlowWindow send_window_;
  FlowWindow recv_window_;
  sim::ByteQueue queue_;
  bool end_queued_ = false;
  std::size_t consumed_unacked_ = 0;
};

}  // namespace h2sim::h2
