#include "experiment/harness.hpp"

#include <algorithm>


namespace h2sim::experiment {

using sim::Duration;

net::Topology::Config TrialConfig::default_path() {
  net::Topology::Config p;
  // Client <-> gateway: the lab LAN segment.
  p.client_side.delay = Duration::millis(2);
  p.client_side.bandwidth_bps = 1e9;
  p.client_side.queue_limit_bytes = 256 * 1024;
  p.client_side.loss_rate = 0.0;
  // Gateway <-> server: the Internet path to isidewith (1 Gbps uplink with
  // light background loss).
  p.server_side.delay = Duration::millis(10);
  p.server_side.bandwidth_bps = 1e9;
  p.server_side.queue_limit_bytes = 128 * 1024;
  // Light Internet-path background loss: enough for a measurable baseline
  // retransmission rate without collapsing the congestion window.
  p.server_side.loss_rate = 1e-4;
  return p;
}

h2::ConnectionConfig TrialConfig::default_server_h2() {
  h2::ConnectionConfig c;
  c.scheduler = h2::SchedulerKind::kRoundRobin;  // multiplexing enabled
  c.data_chunk_size = 1024;
  c.max_concurrent_streams = 100;
  return c;
}

h2::ConnectionConfig TrialConfig::default_client_h2() {
  h2::ConnectionConfig c;
  c.scheduler = h2::SchedulerKind::kRoundRobin;
  c.initial_window_size = 131072;  // Firefox-like
  return c;
}

attack::AttackConfig TrialConfig::default_attack_off() {
  attack::AttackConfig a;
  a.enabled = false;
  return a;
}

attack::AttackConfig full_attack_config() {
  attack::AttackConfig a;
  a.enabled = true;
  a.jitter_phase1 = Duration::millis(50);
  a.trigger_get_index = 6;
  a.use_throttle = true;
  a.throttle_bps = 800e6;
  a.use_drop = true;
  a.drop_rate = 0.8;
  a.drop_duration = Duration::seconds(6);
  a.jitter_phase2 = Duration::millis(80);
  return a;
}

attack::AttackConfig single_target_attack_config(int target_get_index) {
  // Same staged pipeline; the disrupt phase is armed on the target's own GET
  // (the monitor counts requests at arrival, before any hold, so phase-1
  // spacing does not disturb the count).
  attack::AttackConfig a = full_attack_config();
  a.trigger_get_index = target_get_index;
  return a;
}

attack::AttackConfig jitter_only_config(Duration spacing) {
  attack::AttackConfig a;
  a.enabled = true;
  a.jitter_phase1 = spacing;
  a.trigger_get_index = 0;  // never trigger: jitter for the whole run
  a.use_throttle = false;
  a.use_drop = false;
  return a;
}

attack::AttackConfig jitter_throttle_config(Duration spacing, double bps) {
  attack::AttackConfig a = jitter_only_config(spacing);
  a.use_throttle = true;
  a.throttle_bps = bps;
  a.throttle_from_start = true;
  return a;
}

int html_get_index(const web::IsidewithConfig& site) { return site.pre_objects + 1; }

int emblem_get_index(const web::IsidewithConfig& site, int j) {
  return site.pre_objects + 1 + site.head_fillers + j + 1;
}

}  // namespace h2sim::experiment
