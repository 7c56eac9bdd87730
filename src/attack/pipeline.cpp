#include "attack/pipeline.hpp"

#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace h2sim::attack {

namespace {
void trace_phase(AttackPipeline::Phase from, AttackPipeline::Phase to,
                 sim::TimePoint now) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Component::kAttack)) return;
  tr.instant(obs::Component::kAttack, std::string("phase:") + to_string(to),
             now, obs::track::kAdversary, 0,
             obs::TraceArgs().add("from", to_string(from)).take());
}
}  // namespace

const char* to_string(AttackPipeline::Phase p) {
  switch (p) {
    case AttackPipeline::Phase::kIdle: return "idle";
    case AttackPipeline::Phase::kJitter: return "jitter";
    case AttackPipeline::Phase::kDisrupt: return "disrupt";
    case AttackPipeline::Phase::kSerialize: return "serialize";
  }
  return "?";
}

AttackPipeline::AttackPipeline(sim::EventLoop& loop, net::Middlebox& mb,
                               AttackConfig cfg, sim::Rng rng)
    : loop_(loop), mb_(mb), cfg_(cfg), controller_(loop, rng) {
  mb_.add_tap([this](const net::Packet& p, net::Direction dir, sim::TimePoint t) {
    monitor_.observe(p, dir, t);
  });
  if (!cfg_.enabled) return;

  mb_.set_policy(&controller_);
  controller_.set_monitor(&monitor_);
  controller_.drop_held_request_retransmissions = cfg_.suppress_request_retransmissions;
  controller_.set_request_spacing(cfg_.jitter_phase1);
  if (cfg_.use_throttle && cfg_.throttle_from_start) {
    mb_.set_rate_limit(cfg_.throttle_bps);
  }
  trace_phase(phase_, Phase::kJitter, loop_.now());
  phase_ = Phase::kJitter;
  monitor_.on_get = [this](int index, sim::TimePoint) { on_get(index); };
}

void AttackPipeline::on_get(int index) {
  if (!triggered_ && index == cfg_.trigger_get_index) {
    triggered_ = true;
    enter_disrupt();
  }
}

void AttackPipeline::enter_disrupt() {
  trace_phase(phase_, Phase::kDisrupt, loop_.now());
  phase_ = Phase::kDisrupt;
  if (cfg_.use_throttle) mb_.set_rate_limit(cfg_.throttle_bps);
  if (cfg_.use_drop) {
    controller_.start_drop_window(cfg_.drop_rate, cfg_.drop_duration);
    loop_.schedule_after(cfg_.drop_duration, [this] { enter_serialize(); });
  } else {
    enter_serialize();
  }
}

void AttackPipeline::enter_serialize() {
  trace_phase(phase_, Phase::kSerialize, loop_.now());
  phase_ = Phase::kSerialize;
  controller_.stop_drop();
  controller_.set_request_spacing(cfg_.jitter_phase2);
}

}  // namespace h2sim::attack
