#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "sim/ring_queue.hpp"

namespace h2sim::net {

/// Unidirectional point-to-point link: a drop-tail byte-bounded queue feeding
/// a serializer (transmission at `bandwidth_bps`) followed by fixed
/// propagation delay. Matches the classic store-and-forward model, so the
/// bandwidth-delay-product effects the paper relies on (Section IV-C) emerge
/// naturally.
///
/// The serializer is modelled as a busy-until horizon rather than a chain of
/// per-packet transmit-complete events: send() computes the packet's start of
/// transmission (max(now, busy_until)), advances the horizon by the
/// serialization time, and schedules a single delivery event at
/// tx_end + delay. An admitted packet therefore costs exactly one scheduler
/// event instead of two, and a burst of sends never re-enters the scheduler
/// to hand the serializer its next packet. Queue accounting uses a departure
/// ledger (a RingQueue of {tx_start, bytes}) aged at each send(), which
/// reproduces the drop-tail "waiting bytes" limit of the explicit queue.
class Link {
 public:
  struct Config {
    sim::Duration delay = sim::Duration::millis(5);
    double bandwidth_bps = 1e9;        // 1 Gbps default (the paper's lab link)
    std::size_t queue_limit_bytes = 256 * 1024;
    /// Random per-packet loss (Internet-path background loss); gives the
    /// baseline TCP retransmission rate that Table I measures increases
    /// against.
    double loss_rate = 0.0;
    std::uint64_t loss_seed = 0x10552aULL;
  };

  Link(sim::EventLoop& loop, Config cfg, std::string name);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Downstream receiver; must be set before the first send().
  void set_sink(std::function<void(Packet&&)> sink) { sink_ = std::move(sink); }

  /// Observation-only hooks for wire capture (src/capture). The send tap
  /// fires at the top of send() — every packet the upstream endpoint hands
  /// to the wire, before loss/queue admission, like tcpdump on the sending
  /// host's NIC. The deliver tap fires right before the sink — what the
  /// receiving host's NIC sees. Both default unset and cost one branch.
  void set_send_tap(std::function<void(const Packet&, sim::TimePoint)> tap) {
    send_tap_ = std::move(tap);
  }
  void set_deliver_tap(std::function<void(const Packet&, sim::TimePoint)> tap) {
    deliver_tap_ = std::move(tap);
  }

  /// Enqueues a packet for transmission; drops when the queue is full.
  void send(Packet&& p);

  const Config& config() const { return cfg_; }
  const std::string& name() const { return name_; }

 private:
  /// A packet waiting for the serializer: it stops counting against the
  /// queue limit the moment its transmission starts.
  struct Departure {
    sim::TimePoint depart;  // start of transmission
    std::size_t bytes = 0;
  };

  void deliver(Packet&& p);

  sim::EventLoop& loop_;
  Config cfg_;
  std::string name_;
  std::function<void(Packet&&)> sink_;
  std::function<void(const Packet&, sim::TimePoint)> send_tap_;
  std::function<void(const Packet&, sim::TimePoint)> deliver_tap_;

  sim::RingQueue<Departure> ledger_;
  std::size_t queued_bytes_ = 0;
  sim::TimePoint busy_until_ = sim::TimePoint::origin();
  sim::Rng loss_rng_;

  struct Metrics {
    obs::Counter delivered;       // net.link_delivered (all links)
    obs::Counter dropped;         // net.link_drops (all links)
    obs::Counter random_losses;   // net.link_random_losses (all links)
    obs::Histogram queue_depth;   // net.<name>.queue_depth_bytes (per link)
  };
  Metrics metrics_;
};

}  // namespace h2sim::net
