#include "net/link.hpp"

#include <cassert>
#include <utility>

#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace h2sim::net {

Link::Link(sim::EventLoop& loop, Config cfg, std::string name)
    : loop_(loop), cfg_(cfg), name_(std::move(name)), loss_rng_(cfg.loss_seed) {
  auto& reg = obs::metrics();
  metrics_.delivered = reg.counter("net.link_delivered");
  metrics_.dropped = reg.counter("net.link_drops");
  metrics_.random_losses = reg.counter("net.link_random_losses");
  metrics_.queue_depth = reg.histogram("net." + name_ + ".queue_depth_bytes",
                                       obs::exponential_buckets(1024, 2.0, 10));
}

void Link::send(Packet&& p) {
  if (send_tap_) send_tap_(p, loop_.now());
  if (cfg_.loss_rate > 0 && loss_rng_.bernoulli(cfg_.loss_rate)) {
    metrics_.random_losses.inc();
    auto& tr = obs::tracer();
    if (tr.enabled(obs::Component::kNet)) {
      tr.instant(obs::Component::kNet, "loss:" + name_, loop_.now(),
                 obs::track::kNetwork, p.tcp.src_port,
                 obs::TraceArgs().add("packet", p.describe()).take());
    }
    loop_.payload_pool().release(std::move(p.payload));
    return;
  }
  const sim::TimePoint now = loop_.now();
  // Age the departure ledger: packets whose transmission has started no
  // longer count against the drop-tail limit (the old explicit queue popped
  // a packet when the serializer took it).
  while (!ledger_.empty() && ledger_.front().depart <= now) {
    queued_bytes_ -= ledger_.front().bytes;
    ledger_.pop_front();
  }
  if (queued_bytes_ + p.wire_size() > cfg_.queue_limit_bytes) {
    metrics_.dropped.inc();
    auto& tr = obs::tracer();
    if (tr.enabled(obs::Component::kNet)) {
      tr.instant(obs::Component::kNet, "drop:" + name_, loop_.now(),
                 obs::track::kNetwork, p.tcp.src_port,
                 obs::TraceArgs()
                     .add("queued_bytes", queued_bytes_)
                     .add("packet", p.describe())
                     .take());
    }
    loop_.payload_pool().release(std::move(p.payload));
    return;
  }
  const std::size_t wire = p.wire_size();
  queued_bytes_ += wire;
  metrics_.queue_depth.observe(static_cast<double>(queued_bytes_));

  // Serialize behind everything already admitted, then propagate. One
  // delivery event per packet; the serializer never re-enters the scheduler
  // to fetch its next packet.
  const sim::TimePoint start = busy_until_ > now ? busy_until_ : now;
  const double bits = static_cast<double>(wire) * 8.0;
  const double tx_seconds =
      cfg_.bandwidth_bps > 0 ? bits / cfg_.bandwidth_bps : 0.0;
  busy_until_ = start + sim::Duration::seconds_f(tx_seconds);

  if (start > now) {
    ledger_.push_back({start, wire});
  } else {
    queued_bytes_ -= wire;  // straight into the serializer, never waits
  }

  loop_.schedule_at(busy_until_ + cfg_.delay,
                    [this, p = std::move(p)]() mutable { deliver(std::move(p)); });
}

void Link::deliver(Packet&& p) {
  obs::ProfileScope prof(obs::Component::kNet);
  metrics_.delivered.inc();
  assert(sink_ && "link sink not attached");
  if (deliver_tap_) deliver_tap_(p, loop_.now());
  sink_(std::move(p));
}

}  // namespace h2sim::net
