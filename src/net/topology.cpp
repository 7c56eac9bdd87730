#include "net/topology.hpp"

namespace h2sim::net {

namespace {
net::Link::Config reseed(net::Link::Config cfg, std::uint64_t salt) {
  cfg.loss_seed ^= salt * 0x9e3779b97f4a7c15ULL;
  return cfg;
}
}  // namespace

Topology::Topology(sim::EventLoop& loop, const Config& cfg, std::size_t clients)
    : mb_(loop) {
  const std::size_t n = clients == 0 ? 1 : clients;
  c2m_.reserve(n);
  m2c_.reserve(n);

  // Victim links first, with the historical names and loss-seed salts
  // (1..4), so the victim's links are the same at every client count.
  c2m_.push_back(
      std::make_unique<Link>(loop, reseed(cfg.client_side, 1), "link.c2m"));
  m2s_ = std::make_unique<Link>(loop, reseed(cfg.server_side, 2), "link.m2s");
  s2m_ = std::make_unique<Link>(loop, reseed(cfg.server_side, 3), "link.s2m");
  m2c_.push_back(
      std::make_unique<Link>(loop, reseed(cfg.client_side, 4), "link.m2c"));

  // Background-client access links: salts continue past the victim's 1..4
  // (client i uses 3 + 2i / 4 + 2i, disjoint for i >= 1) so adding a client
  // never re-derives another link's loss stream.
  for (std::size_t i = 1; i < n; ++i) {
    const std::string idx = std::to_string(i);
    c2m_.push_back(std::make_unique<Link>(
        loop, reseed(cfg.client_side, 3 + 2 * i), "link.c2m." + idx));
    m2c_.push_back(std::make_unique<Link>(
        loop, reseed(cfg.client_side, 4 + 2 * i), "link.m2c." + idx));
  }

  for (auto& link : c2m_) {
    link->set_sink([this](Packet&& p) { mb_.on_from_client(std::move(p)); });
  }
  s2m_->set_sink([this](Packet&& p) { mb_.on_from_server(std::move(p)); });
  mb_.attach([this](Packet&& p) { m2s_->send(std::move(p)); },
             [this](Packet&& p) { route_to_client(std::move(p)); });
}

void Topology::route_to_client(Packet&& p) {
  // Inverse of client_node(): the victim's id 1 maps to index 0, background
  // id 2 + i maps to index i. Packets for unknown nodes are dropped (they
  // can only come from a misconfigured stack).
  const std::size_t idx =
      p.dst == NodeId{1} ? 0 : static_cast<std::size_t>(p.dst) - 2;
  if (idx < m2c_.size()) m2c_[idx]->send(std::move(p));
}

}  // namespace h2sim::net
