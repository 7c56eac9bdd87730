#pragma once

#include <cstdint>

#include "net/middlebox.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace h2sim::attack {

/// The adversary's network controller (the paper's tc/netem bash scripts):
/// implements the packet policy at the compromised gateway.
///
///  - Request spacing ("jitter"): client->server application-data packets
///    large enough to carry a GET are held so consecutive releases are at
///    least `spacing` apart (delay 0, d, 2d, ... of Section IV-B).
///  - Targeted drops: during a drop window, server->client packets carrying
///    payload are dropped with probability `rate` (Section IV-D).
///
/// Bandwidth throttling is the Middlebox's rate limiter, driven by the
/// pipeline. Pure ACKs always pass: the adversary mimics a congested /
/// lossy path, not a dead one.
class NetworkController : public net::PacketPolicy {
 public:
  struct Stats {
    std::uint64_t requests_spaced = 0;
    std::uint64_t packets_dropped = 0;
    std::uint64_t retransmissions_suppressed = 0;
    sim::Duration max_hold = sim::Duration::zero();
  };

  NetworkController(sim::EventLoop& loop, sim::Rng rng)
      : loop_(loop), rng_(rng) {
    auto& reg = obs::metrics();
    metrics_.requests_spaced = reg.counter("attack.requests_spaced");
    metrics_.packets_dropped = reg.counter("attack.packets_dropped");
    metrics_.retransmissions_suppressed =
        reg.counter("attack.retransmissions_suppressed");
  }

  net::Decision on_packet(const net::Packet& p, net::Direction dir,
                          sim::TimePoint now) override;

  /// Enforced minimum spacing between GET arrivals; zero disables.
  void set_request_spacing(sim::Duration d) { spacing_ = d; }
  sim::Duration request_spacing() const { return spacing_; }

  void start_drop_window(double rate, sim::Duration duration) {
    drop_rate_ = rate;
    drop_until_ = loop_.now() + duration;
  }
  void stop_drop() { drop_rate_ = 0.0; }
  bool dropping() const {
    return drop_rate_ > 0.0 && loop_.now() < drop_until_;
  }

  /// Client->server payload size at/above which a packet is treated as a
  /// request (GET) subject to spacing — the fallback when no monitor is
  /// wired in.
  std::size_t request_payload_min = 100;

  /// Optional: precise request classification from the traffic monitor
  /// (which parses TLS record headers out of the reassembled stream).
  void set_monitor(const class TrafficMonitor* monitor) { monitor_ = monitor; }

  /// While spacing is active, drop client->server TCP retransmissions whose
  /// originals we are still holding (they would race past the hold and
  /// deliver the bundled requests at once).
  bool drop_held_request_retransmissions = true;

  const Stats& stats() const { return stats_; }

 private:
  bool is_request_packet(const net::Packet& p) const;

  sim::EventLoop& loop_;
  sim::Rng rng_;
  const class TrafficMonitor* monitor_ = nullptr;
  sim::Duration spacing_ = sim::Duration::zero();
  sim::TimePoint last_release_ = sim::TimePoint::origin();
  bool any_released_ = false;
  double drop_rate_ = 0.0;
  sim::TimePoint drop_until_ = sim::TimePoint::origin();
  Stats stats_;

  struct Metrics {
    obs::Counter requests_spaced;
    obs::Counter packets_dropped;
    obs::Counter retransmissions_suppressed;
  };
  Metrics metrics_;
};

}  // namespace h2sim::attack
