#pragma once

#include <cassert>
#include <cstdint>

namespace h2sim::h2 {

inline constexpr std::int64_t kDefaultInitialWindow = 65535;
inline constexpr std::int64_t kMaxWindow = 0x7fffffff;
inline constexpr std::int64_t kMinWindow = -kMaxWindow - 1;

/// One flow-control window (connection-level or stream-level). Windows may
/// legitimately go negative when SETTINGS_INITIAL_WINDOW_SIZE shrinks
/// (RFC 7540 §6.9.2), so this is signed arithmetic with an overflow check on
/// replenish. A window never leaves the signed 31-bit range: an increase
/// that would overflow is refused and leaves it unchanged, and debug builds
/// assert the range after every change.
class FlowWindow {
 public:
  explicit FlowWindow(std::int64_t initial = kDefaultInitialWindow)
      : window_(initial) {
    assert(in_range());
  }

  std::int64_t available() const { return window_; }
  bool can_send(std::int64_t n) const { return window_ >= n; }

  void consume(std::int64_t n) {
    window_ -= n;
    assert(in_range());
  }

  /// Returns false, leaving the window unchanged, on overflow (> 2^31-1):
  /// a FLOW_CONTROL_ERROR.
  bool replenish(std::int64_t n) { return adjust(n); }

  /// Applies an INITIAL_WINDOW_SIZE delta (may push the window negative).
  /// Returns false, leaving the window unchanged, on overflow.
  bool adjust(std::int64_t delta) {
    if (window_ + delta > kMaxWindow) return false;
    window_ += delta;
    assert(in_range());
    return true;
  }

 private:
  bool in_range() const { return window_ >= kMinWindow && window_ <= kMaxWindow; }

  std::int64_t window_;
};

}  // namespace h2sim::h2
