#include "tcp/tcp_stack.hpp"

#include "obs/context.hpp"
#include "obs/profiler.hpp"

namespace h2sim::tcp {

TcpConnection& TcpStack::connect(net::NodeId dst, net::Port dst_port) {
  const net::Port sport = next_ephemeral_++;
  const auto iss = static_cast<std::uint32_t>(rng_.uniform(1u << 24));
  auto conn = std::make_unique<TcpConnection>(loop_, TcpConfig{}, node_, sport, dst,
                                              dst_port, send_fn_, iss);
  TcpConnection& ref = *conn;
  conns_[ConnKey{sport, dst, dst_port}] = std::move(conn);
  ref.connect();
  return ref;
}

void TcpStack::deliver(net::Packet&& p) {
  obs::ProfileScope prof(obs::Component::kTcp);
  // This stack is the packet's terminal consumer: whatever happens below, the
  // payload buffer goes back to the loop's pool on exit so the next emitted
  // segment reuses it instead of allocating.
  handle(p);
  loop_.payload_pool().release(std::move(p.payload));
}

void TcpStack::handle(const net::Packet& p) {
  if (p.dst != node_) return;  // not addressed to us (mis-wired topology)
  const ConnKey key{p.tcp.dst_port, p.src, p.tcp.src_port};
  auto it = conns_.find(key);
  if (it != conns_.end()) {
    it->second->handle_segment(p);
    return;
  }
  if (p.tcp.syn() && !p.tcp.ack_flag()) {
    auto lit = listeners_.find(p.tcp.dst_port);
    if (lit != listeners_.end()) {
      const auto iss = static_cast<std::uint32_t>(rng_.uniform(1u << 24));
      auto conn = std::make_unique<TcpConnection>(loop_, TcpConfig{}, node_,
                                                  p.tcp.dst_port, p.src,
                                                  p.tcp.src_port, send_fn_, iss);
      TcpConnection& ref = *conn;
      conns_[key] = std::move(conn);
      lit->second(ref);  // application installs callbacks
      ref.handle_segment(p);
      return;
    }
  }
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.instant(obs::Component::kTcp, "no-connection", loop_.now(),
               trace_pid(node_), p.tcp.dst_port,
               obs::TraceArgs().add("packet", p.describe()).take());
  }
}

}  // namespace h2sim::tcp
