#include "net/middlebox.hpp"

#include <cassert>

#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace h2sim::net {

std::optional<sim::Duration> RateLimiter::admit(double bits, sim::TimePoint now) {
  // Refill tokens since the last admit.
  const double elapsed = (now - last_).count_nanos() / 1e9;
  if (elapsed > 0) {
    tokens_ = std::min(burst_bits_, tokens_ + elapsed * rate_bps_);
    last_ = now;
  }
  if (tokens_ >= bits && now >= next_free_) {
    tokens_ -= bits;
    return sim::Duration::zero();
  }
  // Not enough tokens: schedule after the deficit refills. Serialize behind
  // any previously delayed packet so ordering is preserved; drop when the
  // shaping queue exceeds its delay budget (tail drop, like tbf).
  const double deficit = bits > tokens_ ? bits - tokens_ : 0.0;
  sim::TimePoint release = now + sim::Duration::seconds_f(deficit / rate_bps_);
  if (release < next_free_) release = next_free_;
  if (release - now > max_queue_delay) return std::nullopt;
  tokens_ = 0;
  last_ = now;
  next_free_ = release + sim::Duration::seconds_f(bits / rate_bps_);
  return release - now;
}

void Middlebox::set_rate_limit(double rate_bps) {
  if (rate_bps <= 0) {
    limiter_c2s_.reset();
    limiter_s2c_.reset();
    return;
  }
  limiter_c2s_.emplace(rate_bps);
  limiter_s2c_.emplace(rate_bps);
}

void Middlebox::process(Packet&& p, Direction dir) {
  const sim::TimePoint now = loop_.now();
  for (const Tap& tap : taps_) tap(p, dir, now);

  Decision d = policy_ ? policy_->on_packet(p, dir, now) : Decision::forward();
  auto& tr = obs::tracer();
  switch (d.action) {
    case Decision::Action::kDrop:
      metrics_.dropped.inc();
      if (tr.enabled(obs::Component::kNet)) {
        tr.instant(obs::Component::kNet, "mb-drop", now, obs::track::kNetwork,
                   p.tcp.src_port,
                   obs::TraceArgs()
                       .add("dir", to_string(dir))
                       .add("packet", p.describe())
                       .take());
      }
      loop_.payload_pool().release(std::move(p.payload));
      return;
    case Decision::Action::kHold: {
      metrics_.held.inc();
      if (tr.enabled(obs::Component::kNet)) {
        tr.complete(obs::Component::kNet, "mb-hold", now, now + d.hold_for,
                    obs::track::kNetwork, p.tcp.src_port,
                    obs::TraceArgs()
                        .add("dir", to_string(dir))
                        .add("packet", p.describe())
                        .take());
      }
      loop_.schedule_after(d.hold_for, [this, p = std::move(p), dir]() mutable {
        forward(std::move(p), dir);
      });
      return;
    }
    case Decision::Action::kForward:
      forward(std::move(p), dir);
      return;
  }
}

void Middlebox::forward(Packet&& p, Direction dir) {
  auto& limiter = dir == Direction::kClientToServer ? limiter_c2s_ : limiter_s2c_;
  if (limiter) {
    const double bits = static_cast<double>(p.wire_size()) * 8.0;
    const auto wait = limiter->admit(bits, loop_.now());
    if (!wait) {
      metrics_.dropped.inc();  // shaping queue overflow
      loop_.payload_pool().release(std::move(p.payload));
      return;
    }
    if (*wait > sim::Duration::zero()) {
      loop_.schedule_after(*wait, [this, p = std::move(p), dir]() mutable {
        metrics_.forwarded.inc();
        auto& out = dir == Direction::kClientToServer ? to_server_ : to_client_;
        assert(out);
        out(std::move(p));
      });
      return;
    }
  }
  metrics_.forwarded.inc();
  auto& out = dir == Direction::kClientToServer ? to_server_ : to_client_;
  assert(out);
  out(std::move(p));
}

}  // namespace h2sim::net
