#include "h2/stream.hpp"

#include <algorithm>

namespace h2sim::h2 {

const char* to_string(StreamState s) {
  switch (s) {
    case StreamState::kIdle: return "idle";
    case StreamState::kReservedLocal: return "reserved(local)";
    case StreamState::kReservedRemote: return "reserved(remote)";
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
      state_ = end_stream ? StreamState::kHalfClosedLocal : StreamState::kOpen;
      return true;
    case StreamState::kReservedLocal:
      state_ = end_stream ? StreamState::kClosed : StreamState::kHalfClosedRemote;
      return true;
    case StreamState::kOpen:
      // Trailers.
      if (end_stream) state_ = StreamState::kHalfClosedLocal;
      return true;
    case StreamState::kHalfClosedRemote:
      if (end_stream) state_ = StreamState::kClosed;
      return true;
    default:
      return false;
  }
}

bool Stream::on_recv_headers(bool end_stream) {
  switch (state_) {
    case StreamState::kIdle:
      state_ = end_stream ? StreamState::kHalfClosedRemote : StreamState::kOpen;
      return true;
    case StreamState::kReservedRemote:
      state_ = end_stream ? StreamState::kClosed : StreamState::kHalfClosedLocal;
      return true;
    case StreamState::kOpen:
      if (end_stream) state_ = StreamState::kHalfClosedRemote;
      return true;
    case StreamState::kHalfClosedLocal:
      if (end_stream) state_ = StreamState::kClosed;
      return true;
    default:
      return false;
  }
}

bool Stream::on_send_data_end() {
  switch (state_) {
    case StreamState::kOpen:
      state_ = StreamState::kHalfClosedLocal;
      return true;
    case StreamState::kHalfClosedRemote:
      state_ = StreamState::kClosed;
      return true;
    default:
      return false;
  }
}

bool Stream::on_recv_data(bool end_stream) {
  if (!can_recv_data()) return false;
  if (end_stream) {
    state_ = state_ == StreamState::kOpen ? StreamState::kHalfClosedRemote
                                          : StreamState::kClosed;
  }
  return true;
}

bool Stream::on_send_push_promise() {
  if (state_ != StreamState::kIdle) return false;
  state_ = StreamState::kReservedLocal;
  return true;
}

bool Stream::on_recv_push_promise() {
  if (state_ != StreamState::kIdle) return false;
  state_ = StreamState::kReservedRemote;
  return true;
}

void Stream::enqueue(std::span<const std::uint8_t> bytes, bool end_stream) {
  queue_.append(bytes);
  if (end_stream) end_queued_ = true;
}

std::span<const std::uint8_t> Stream::take(std::size_t n) {
  const auto out = queue_.bytes().first(std::min(n, queue_.size()));
  queue_.consume(out.size());
  return out;
}

void Stream::flush_queue() {
  queue_.clear();
  end_queued_ = false;
}

}  // namespace h2sim::h2
