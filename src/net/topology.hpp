#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/link.hpp"
#include "net/middlebox.hpp"

namespace h2sim::net {

/// The experiment topology, generalized from the paper's Figure 2 to N
/// client stacks sharing one compromised gateway: every client has its own
/// access segment (two unidirectional links), all of them feed the single
/// middlebox, and one shared server-side segment models the gateway's uplink
/// bottleneck. Client 0 is the victim; clients 1..N-1 carry background
/// cross-traffic competing for the shared links' queues and serializers.
///
///   client[0] --c2m[0]--> [middlebox] --m2s--> server
///   client[0] <--m2c[0]-- [middlebox] <--s2m-- server
///   client[i] --c2m[i]--> [middlebox]   (same m2s/s2m uplink)
///
/// With one client this is the paper's single-client Figure 2 wiring; the
/// victim's link names and loss-seed derivation do not depend on the client
/// count, and the behavior-golden digests pin them.
class Topology {
 public:
  struct Config {
    Link::Config client_side;  // per-client access segment (both directions)
    Link::Config server_side;  // shared gateway <-> server bottleneck
  };

  static constexpr NodeId kServerNode = 2;

  /// Node id of client stack `i`. The victim keeps the historical id 1; the
  /// server keeps 2; background client i >= 1 gets 2 + i so ids never
  /// collide.
  static constexpr NodeId client_node(std::size_t i) {
    return i == 0 ? NodeId{1} : static_cast<NodeId>(2 + i);
  }

  /// `clients` is the total number of client stacks (index 0 = victim); 0
  /// is treated as 1.
  Topology(sim::EventLoop& loop, const Config& cfg, std::size_t clients);

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  std::size_t clients() const { return c2m_.size(); }

  /// Endpoint transmit entry points (wired into the TCP stacks).
  void send_from_client(std::size_t i, Packet&& p) { c2m_[i]->send(std::move(p)); }
  void send_from_server(Packet&& p) { s2m_->send(std::move(p)); }

  /// Endpoint delivery sinks (the TCP stacks' receive paths).
  void set_client_sink(std::size_t i, std::function<void(Packet&&)> sink) {
    m2c_[i]->set_sink(std::move(sink));
  }
  void set_server_sink(std::function<void(Packet&&)> sink) {
    m2s_->set_sink(std::move(sink));
  }

  Middlebox& middlebox() { return mb_; }
  Link& client_to_mb(std::size_t i = 0) { return *c2m_[i]; }
  Link& mb_to_client(std::size_t i = 0) { return *m2c_[i]; }
  Link& mb_to_server() { return *m2s_; }
  Link& server_to_mb() { return *s2m_; }

 private:
  void route_to_client(Packet&& p);

  std::vector<std::unique_ptr<Link>> c2m_;  // per client, index = client index
  std::vector<std::unique_ptr<Link>> m2c_;
  std::unique_ptr<Link> m2s_;  // shared uplink (the contention bottleneck)
  std::unique_ptr<Link> s2m_;
  Middlebox mb_;
};

}  // namespace h2sim::net
