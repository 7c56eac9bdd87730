#pragma once

#include <cstdint>
#include <string>

#include "attack/controller.hpp"
#include "attack/monitor.hpp"
#include "net/middlebox.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"

namespace h2sim::attack {

/// Full staged attack of Section V.
///
/// Phase 1 (page load begins): request spacing `jitter_phase1` on every GET;
/// count GETs.  Phase 2 (the trigger GET — the 6th, carrying the result-HTML
/// request — is seen): throttle the link to `throttle_bps` and drop
/// `drop_rate` of server->client application packets for `drop_duration`,
/// forcing the client's RST_STREAM sweep.  Phase 3 (drop window over):
/// spacing raised to `jitter_phase2` so the re-requested HTML and the
/// 8-image burst serialize.
struct AttackConfig {
  bool enabled = true;
  sim::Duration jitter_phase1 = sim::Duration::millis(50);
  int trigger_get_index = 6;
  bool use_throttle = true;
  double throttle_bps = 800e6;
  /// Apply the bandwidth limit from the start of the run instead of at the
  /// trigger (the Figure 5 sweep configuration).
  bool throttle_from_start = false;
  bool use_drop = true;
  double drop_rate = 0.8;
  sim::Duration drop_duration = sim::Duration::seconds(6);
  sim::Duration jitter_phase2 = sim::Duration::millis(80);
  /// §VII refinement: drop client TCP retransmissions of requests we are
  /// still holding. With this off, the adversary behaves like the paper's
  /// and suffers the fast-retransmit storms of Section IV-B (retransmitted
  /// request bundles race past the holds and un-serialize the objects).
  bool suppress_request_retransmissions = true;
};

class AttackPipeline {
 public:
  enum class Phase { kIdle = 0, kJitter = 1, kDisrupt = 2, kSerialize = 3 };

  AttackPipeline(sim::EventLoop& loop, net::Middlebox& mb, AttackConfig cfg,
                 sim::Rng rng);

  TrafficMonitor& monitor() { return monitor_; }
  NetworkController& controller() { return controller_; }
  const analysis::PacketTrace& trace() const { return monitor_.trace(); }
  Phase phase() const { return phase_; }
  const AttackConfig& config() const { return cfg_; }

 private:
  void on_get(int index);
  void enter_disrupt();
  void enter_serialize();

  sim::EventLoop& loop_;
  net::Middlebox& mb_;
  AttackConfig cfg_;
  TrafficMonitor monitor_;
  NetworkController controller_;
  Phase phase_ = Phase::kIdle;
  bool triggered_ = false;
};

const char* to_string(AttackPipeline::Phase p);

}  // namespace h2sim::attack
