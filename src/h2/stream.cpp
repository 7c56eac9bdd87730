#include "h2/stream.hpp"

#include <algorithm>
#include <cassert>

namespace h2sim::h2 {

namespace {

/// The edges of RFC 7540 §5.1's state diagram without the reserved states.
/// A HEADERS frame carrying END_STREAM takes two edges at once (idle to
/// half-closed), and RST_STREAM closes any stream that has left idle.
[[maybe_unused]] bool legal_transition(StreamState from, StreamState to) {
  using S = StreamState;
  if (from == to) return true;
  switch (from) {
    case S::kIdle: return to != S::kClosed;
    case S::kOpen:
      return to == S::kHalfClosedLocal || to == S::kHalfClosedRemote ||
             to == S::kClosed;
    case S::kHalfClosedLocal:
    case S::kHalfClosedRemote: return to == S::kClosed;
    case S::kClosed: return false;
  }
  return false;
}

}  // namespace

const char* to_string(StreamState s) {
  switch (s) {
    case StreamState::kIdle: return "idle";
    case StreamState::kOpen: return "open";
    case StreamState::kHalfClosedLocal: return "half-closed(local)";
    case StreamState::kHalfClosedRemote: return "half-closed(remote)";
    case StreamState::kClosed: return "closed";
  }
  return "?";
}

bool Stream::on_send_headers(bool end_stream) {
  switch (state_) {
    case StreamState::kIdle:
      set_state(end_stream ? StreamState::kHalfClosedLocal : StreamState::kOpen);
      return true;
    case StreamState::kOpen:
      // Trailers.
      if (end_stream) set_state(StreamState::kHalfClosedLocal);
      return true;
    case StreamState::kHalfClosedRemote:
      if (end_stream) set_state(StreamState::kClosed);
      return true;
    default:
      return false;
  }
}

bool Stream::on_recv_headers(bool end_stream) {
  switch (state_) {
    case StreamState::kIdle:
      set_state(end_stream ? StreamState::kHalfClosedRemote : StreamState::kOpen);
      return true;
    case StreamState::kOpen:
      if (end_stream) set_state(StreamState::kHalfClosedRemote);
      return true;
    case StreamState::kHalfClosedLocal:
      if (end_stream) set_state(StreamState::kClosed);
      return true;
    default:
      return false;
  }
}

bool Stream::on_send_data_end() {
  switch (state_) {
    case StreamState::kOpen:
      set_state(StreamState::kHalfClosedLocal);
      return true;
    case StreamState::kHalfClosedRemote:
      set_state(StreamState::kClosed);
      return true;
    default:
      return false;
  }
}

bool Stream::on_recv_data(bool end_stream) {
  if (!can_recv_data()) return false;
  if (end_stream) {
    set_state(state_ == StreamState::kOpen ? StreamState::kHalfClosedRemote
                                            : StreamState::kClosed);
  }
  return true;
}

void Stream::set_state(StreamState next) {
  assert(legal_transition(state_, next));
  state_ = next;
}

void Stream::enqueue(std::span<const std::uint8_t> bytes, bool end_stream) {
  if (!bytes.empty()) {
    if (taken_ == queued_) {
      taken_ = bytes.data();  // an empty queue starts a new window
    } else {
      assert(bytes.data() == queued_);  // a queued window only grows at its end
    }
    queued_ = bytes.data() + bytes.size();
  }
  if (end_stream) end_queued_ = true;
}

std::span<const std::uint8_t> Stream::take(std::size_t n) {
  const std::span<const std::uint8_t> out(taken_, std::min(n, queued_bytes()));
  taken_ += out.size();
  assert(taken_ <= queued_);
  return out;
}

void Stream::flush_queue() {
  taken_ = queued_ = nullptr;
  end_queued_ = false;
}

}  // namespace h2sim::h2
