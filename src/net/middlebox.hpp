#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>
// std::optional is used for RateLimiter::admit's drop signalling.

#include "net/packet.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"

namespace h2sim::net {

/// What the adversary (or any policy) may do with a transiting packet.
/// These are exactly the paper's Section-III capabilities (3)-(5): delay,
/// throttle (modelled separately via RateLimiter), and drop.
struct Decision {
  enum class Action { kForward, kDrop, kHold };
  Action action = Action::kForward;
  sim::Duration hold_for = sim::Duration::zero();  // used when action == kHold

  static Decision forward() { return {}; }
  static Decision drop() { return {Action::kDrop, sim::Duration::zero()}; }
  static Decision hold(sim::Duration d) { return {Action::kHold, d}; }
};

/// Per-packet policy consulted by the middlebox. Implementations must not
/// mutate the packet (the adversary is non-intrusive: it never rewrites
/// bytes, only times/drops them).
class PacketPolicy {
 public:
  virtual ~PacketPolicy() = default;
  virtual Decision on_packet(const Packet& p, Direction dir, sim::TimePoint now) = 0;
};

/// Token-bucket shaper used for the adversary's bandwidth throttling. A
/// packet may depart once the bucket holds its size in bits; otherwise its
/// departure is delayed to the time the tokens will have accumulated.
class RateLimiter {
 public:
  explicit RateLimiter(double rate_bps, double burst_bits = 12000.0)
      : rate_bps_(rate_bps), burst_bits_(burst_bits), tokens_(burst_bits) {}

  double rate() const { return rate_bps_; }

  /// Returns the delay before the packet of `bits` may be released, updating
  /// internal token state as of `now`. Zero when the bucket has room;
  /// nullopt when the shaping queue is full (drop, like a real shaper).
  std::optional<sim::Duration> admit(double bits, sim::TimePoint now);

  /// Maximum queueing delay the shaper will buffer before dropping (real
  /// tbf-style shapers buffer generously; drops only under sustained
  /// overload).
  sim::Duration max_queue_delay = sim::Duration::millis(1500);

 private:
  double rate_bps_;
  double burst_bits_;
  double tokens_;
  sim::TimePoint last_ = sim::TimePoint::origin();
  sim::TimePoint next_free_ = sim::TimePoint::origin();
};

/// The compromised on-path device. Every packet in either direction passes
/// through: tap (pure observation, the traffic monitor) -> policy (delay /
/// drop) -> optional rate limiter -> forwarding. The tap always sees the
/// packet even if the policy later drops it, mirroring a tshark capture on
/// the gateway itself.
class Middlebox {
 public:
  explicit Middlebox(sim::EventLoop& loop) : loop_(loop) {
    auto& reg = obs::metrics();
    metrics_.forwarded = reg.counter("net.mb_forwarded");
    metrics_.dropped = reg.counter("net.mb_dropped");
    metrics_.held = reg.counter("net.mb_held");
  }

  Middlebox(const Middlebox&) = delete;
  Middlebox& operator=(const Middlebox&) = delete;

  void attach(std::function<void(Packet&&)> to_server,
              std::function<void(Packet&&)> to_client) {
    to_server_ = std::move(to_server);
    to_client_ = std::move(to_client);
  }

  /// Ingress from the client-side link.
  void on_from_client(Packet&& p) { process(std::move(p), Direction::kClientToServer); }
  /// Ingress from the server-side link.
  void on_from_server(Packet&& p) { process(std::move(p), Direction::kServerToClient); }

  /// Non-owning; pass nullptr to remove. The policy must outlive the run.
  void set_policy(PacketPolicy* policy) { policy_ = policy; }

  using Tap = std::function<void(const Packet&, Direction, sim::TimePoint)>;

  /// Installs an observation-only hook (the traffic monitor, a pcap
  /// writer) beside any installed before it. Every tap sees every packet on
  /// arrival, before any policy action, in installation order.
  void add_tap(Tap tap) { taps_.push_back(std::move(tap)); }

  /// Enables/disables throttling. rate_bps <= 0 disables. Applied to both
  /// directions independently (the paper limits incoming and outgoing).
  void set_rate_limit(double rate_bps);

 private:
  void process(Packet&& p, Direction dir);
  void forward(Packet&& p, Direction dir);

  sim::EventLoop& loop_;
  std::function<void(Packet&&)> to_server_;
  std::function<void(Packet&&)> to_client_;
  PacketPolicy* policy_ = nullptr;
  std::vector<Tap> taps_;
  std::optional<RateLimiter> limiter_c2s_;
  std::optional<RateLimiter> limiter_s2c_;

  struct Metrics {
    obs::Counter forwarded;
    obs::Counter dropped;
    obs::Counter held;
  };
  Metrics metrics_;
};

}  // namespace h2sim::net
