#pragma once

#include <cstdint>
#include <cstddef>

#include "net/packet.hpp"
#include "sim/time.hpp"

// (sim::Duration comes from sim/time.hpp)

namespace h2sim::tcp {

/// Wrap-safe 32-bit sequence comparisons (RFC 793 arithmetic).
inline bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}
inline bool seq_le(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
inline bool seq_gt(std::uint32_t a, std::uint32_t b) { return seq_lt(b, a); }
inline bool seq_ge(std::uint32_t a, std::uint32_t b) { return seq_le(b, a); }

struct TcpConfig {
  std::size_t mss = net::kMssBytes;
  /// RFC 6928 initial window (10 segments).
  std::size_t initial_cwnd_segments = 10;
  std::size_t recv_window = 1 << 20;
  sim::Duration initial_rto = sim::Duration::seconds(1);
  sim::Duration min_rto = sim::Duration::millis(200);
  sim::Duration max_rto = sim::Duration::seconds(60);
  /// Cap on the exponentially backed-off RTO while retrying (several modern
  /// stacks bound the backoff; this also bounds recovery latency after an
  /// outage).
  sim::Duration rto_backoff_cap = sim::Duration::millis(800);
  /// Consecutive RTO expirations before the connection is declared broken.
  int max_rto_retries = 10;
  /// Abort when no forward progress (snd_una advance) happens for this long
  /// with data outstanding: the stack/application gives up on a dead path.
  sim::Duration stuck_timeout = sim::Duration::millis(5800);
  int dupack_threshold = 3;
  std::size_t send_buffer_limit = 16 << 20;
};

}  // namespace h2sim::tcp
