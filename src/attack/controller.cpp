#include "attack/controller.hpp"

#include <cmath>

#include "attack/monitor.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace h2sim::attack {

namespace {
/// Client->server payload size at/above which a packet is treated as a
/// request (GET) subject to spacing: the fallback when no monitor is wired in.
constexpr std::size_t kRequestPayloadMin = 100;
}  // namespace

bool NetworkController::is_request_packet(const net::Packet& p) const {
  if (monitor_) return monitor_->packet_is_request(p.id);
  return p.payload.size() >= kRequestPayloadMin;
}

net::Decision NetworkController::on_packet(const net::Packet& p,
                                           net::Direction dir,
                                           sim::TimePoint now) {
  if (dir == net::Direction::kClientToServer) {
    if (spacing_ > sim::Duration::zero() && monitor_ &&
        drop_held_request_retransmissions &&
        monitor_->packet_is_c2s_retransmission(p.id) && now < last_release_) {
      metrics_.retransmissions_suppressed.inc();
      auto& tr = obs::tracer();
      if (tr.enabled(obs::Component::kAttack)) {
        tr.instant(obs::Component::kAttack, "suppress-retrans", now,
                   obs::track::kAdversary, p.tcp.src_port,
                   obs::TraceArgs().add("packet", p.describe()).take());
      }
      return net::Decision::drop();
    }
    if (spacing_ > sim::Duration::zero() && is_request_packet(p)) {
      // "First request delayed by 0 ms, second by d, third by 2d..." — the
      // first request always passes; later ones keep >= spacing between
      // releases.
      sim::TimePoint release = any_released_ ? last_release_ + spacing_ : now;
      if (release < now) release = now;
      last_release_ = release;
      any_released_ = true;
      if (release > now) {
        metrics_.requests_spaced.inc();
        const sim::Duration hold = release - now;
        auto& tr = obs::tracer();
        if (tr.enabled(obs::Component::kAttack)) {
          tr.complete(obs::Component::kAttack, "space-request", now, release,
                      obs::track::kAdversary, p.tcp.src_port,
                      obs::TraceArgs()
                          .add("hold_ms", hold.to_millis())
                          .add("packet", p.describe())
                          .take());
        }
        return net::Decision::hold(hold);
      }
    }
    return net::Decision::forward();
  }

  // Server -> client: random policing during the drop window (the paper's
  // "drop 80 % of application packets").
  if (dropping() && !p.payload.empty() && rng_.bernoulli(drop_rate_)) {
    metrics_.packets_dropped.inc();
    auto& tr = obs::tracer();
    if (tr.enabled(obs::Component::kAttack)) {
      tr.instant(obs::Component::kAttack, "adv-drop", now,
                 obs::track::kAdversary, p.tcp.dst_port,
                 obs::TraceArgs().add("packet", p.describe()).take());
    }
    return net::Decision::drop();
  }
  return net::Decision::forward();
}

}  // namespace h2sim::attack
