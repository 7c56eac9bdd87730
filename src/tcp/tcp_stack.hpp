#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>

#include "net/packet.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_connection.hpp"

namespace h2sim::tcp {

/// Host-side TCP: demultiplexes incoming packets onto connections, hands out
/// ephemeral ports, and creates passive connections for listening ports.
/// One instance per simulated node (client, server).
class TcpStack {
 public:
  /// Invoked for a freshly created passive connection so the application can
  /// install its callbacks before the handshake completes.
  using AcceptFn = std::function<void(TcpConnection&)>;
  using SendFn = TcpConnection::SendFn;

  TcpStack(sim::EventLoop& loop, sim::Rng rng, net::NodeId node, TcpConfig cfg,
           SendFn send_fn)
      : loop_(loop),
        rng_(rng),
        node_(node),
        cfg_(cfg),
        send_fn_(std::move(send_fn)) {}

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  void listen(net::Port port, AcceptFn on_accept) {
    listeners_[port] = std::move(on_accept);
  }

  /// Active open to (dst, dst_port); returns the connection (owned by the
  /// stack, stable address for the lifetime of the stack).
  TcpConnection& connect(net::NodeId dst, net::Port dst_port);

  /// Entry point wired into the topology's delivery sink. Consumes the
  /// packet: its payload buffer is recycled into the loop's payload pool.
  void deliver(net::Packet&& p);

  net::NodeId node() const { return node_; }
  const TcpConfig& config() const { return cfg_; }

  /// Aggregate retransmission statistics across every connection this stack
  /// has ever owned (the paper's wire-level retransmission counts).
  TcpStats aggregate_stats() const;

 private:
  using ConnKey = std::tuple<net::Port, net::NodeId, net::Port>;

  void handle(const net::Packet& p);

  sim::EventLoop& loop_;
  sim::Rng rng_;
  net::NodeId node_;
  TcpConfig cfg_;
  SendFn send_fn_;
  net::Port next_ephemeral_ = 49152;

  std::map<net::Port, AcceptFn> listeners_;
  std::map<ConnKey, std::unique_ptr<TcpConnection>> conns_;
};

}  // namespace h2sim::tcp
