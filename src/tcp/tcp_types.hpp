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

// Fixed parameters of every simulated TCP endpoint; segments carry up to
// net::kMssBytes of payload.

/// RFC 6928 initial window (10 segments).
inline constexpr std::size_t kInitialCwndSegments = 10;
inline constexpr sim::Duration kInitialRto = sim::Duration::seconds(1);
inline constexpr sim::Duration kMinRto = sim::Duration::millis(200);
inline constexpr sim::Duration kMaxRto = sim::Duration::seconds(60);
/// Cap on the exponentially backed-off RTO while retrying (several modern
/// stacks bound the backoff; this also bounds recovery latency after an
/// outage).
inline constexpr sim::Duration kRtoBackoffCap = sim::Duration::millis(800);
/// Consecutive RTO expirations before the connection is declared broken.
inline constexpr int kMaxRtoRetries = 10;
/// Abort when no forward progress (snd_una advance) happens for this long
/// with data outstanding: the stack/application gives up on a dead path.
inline constexpr sim::Duration kStuckTimeout = sim::Duration::millis(5800);
inline constexpr int kDupackThreshold = 3;
inline constexpr std::size_t kSendBufferLimit = 16 << 20;

struct TcpConfig {
  /// Advertised receive window, and the initial slow-start threshold.
  std::size_t recv_window = 1 << 20;
};

}  // namespace h2sim::tcp
