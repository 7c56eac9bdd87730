#pragma once

// Shared test fixture: a full HTTP/2 client/server pair over simulated
// TLS/TCP/links, with hooks for handlers and scheduler configuration.

#include <memory>
#include <vector>

#include "h2/client.hpp"
#include "h2/server.hpp"
#include "net/topology.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/session.hpp"

namespace h2sim::testing {

class H2Pair {
 public:
  explicit H2Pair(h2::ConnectionConfig server_cfg = {},
                  h2::ConnectionConfig client_cfg = {}) {
    topo = std::make_unique<net::Topology>(loop, net::Topology::Config{}, 1);
    server_stack = std::make_unique<tcp::TcpStack>(
        loop, sim::Rng(11), net::Topology::kServerNode,
        [this](net::Packet&& p) { topo->send_from_server(std::move(p)); });
    client_stack = std::make_unique<tcp::TcpStack>(
        loop, sim::Rng(12), net::Topology::client_node(0),
        [this](net::Packet&& p) { topo->send_from_client(0, std::move(p)); });
    topo->set_server_sink(
        [this](net::Packet&& p) { server_stack->deliver(std::move(p)); });
    topo->set_client_sink(0, 
        [this](net::Packet&& p) { client_stack->deliver(std::move(p)); });

    server_stack->listen(443, [this, server_cfg](tcp::TcpConnection& c) {
      server_tls = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kServer);
      server = std::make_unique<h2::ServerConnection>(loop, *server_tls, server_cfg,
                                                      sim::Rng(21));
    });

    tcp::TcpConnection& c = client_stack->connect(net::Topology::kServerNode, 443);
    client_tls = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kClient);
    client = std::make_unique<h2::ClientConnection>(loop, *client_tls, client_cfg,
                                                    sim::Rng(22));
  }

  /// Runs the loop for `seconds` of additional simulated time.
  void run(double seconds = 5) {
    loop.run(loop.now() + sim::Duration::seconds_f(seconds));
  }

  sim::EventLoop loop;
  std::unique_ptr<net::Topology> topo;
  std::unique_ptr<tcp::TcpStack> server_stack;
  std::unique_ptr<tcp::TcpStack> client_stack;
  std::unique_ptr<tls::TlsSession> server_tls;
  std::unique_ptr<tls::TlsSession> client_tls;
  std::unique_ptr<h2::ServerConnection> server;
  std::unique_ptr<h2::ClientConnection> client;
};

}  // namespace h2sim::testing
