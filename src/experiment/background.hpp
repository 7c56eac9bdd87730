#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "h2/client.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/session.hpp"
#include "web/website.hpp"

namespace h2sim::experiment {

/// What one background client does on the shared gateway path.
enum class BackgroundWorkload : int {
  kIdle = 0,      // a constructed stack that never connects (zero packets)
  kBulk = 1,      // download every embedded object, multiplexed, N passes
  kPoll = 2,      // small periodic request with exponential think time
  kSlowDrip = 3,  // window-limited slow read of the largest object
};

const char* to_string(BackgroundWorkload w);

/// Per-trial contention knobs (TrialConfig::load). Zero background clients
/// is the classic single-client trial, byte-for-byte.
struct LoadConfig {
  /// Background client stacks added beside the victim (total = 1 + this).
  int background_clients = 0;

  /// Workload assigned to background client i (1-based): mix[(i-1) % size].
  /// The default mix interleaves heavy, periodic, and hostile-slow flows —
  /// the three regimes the contention studies in PAPERS.md distinguish.
  std::vector<BackgroundWorkload> mix{BackgroundWorkload::kBulk,
                                      BackgroundWorkload::kPoll,
                                      BackgroundWorkload::kSlowDrip};

  /// Mean of the exponential arrival offset before a background client opens
  /// its connection (per-client draw from its own seed stream).
  sim::Duration arrival_mean = sim::Duration::millis(150);

  /// kBulk: how many passes over the site's objects (0 = until sim end).
  int bulk_passes = 1;
  /// kBulk: outstanding requests kept in flight per client.
  int bulk_concurrency = 8;

  /// kPoll: mean exponential think time between polls.
  sim::Duration poll_mean = sim::Duration::millis(250);

  /// kSlowDrip: advertised per-stream window, bytes. Tiny windows force the
  /// server to trickle the response — the slow-read occupancy pattern of the
  /// HTTP/2 slow-DoS literature.
  std::uint32_t drip_window = 2048;
};

/// One background client: its own TCP/TLS/H2 stack riding topology slot
/// `index` (>= 1), driven by a deterministic workload. All randomness comes
/// from `seed`, which run_trial derives as trial-seed ⊕ mix(index) — the
/// victim's RNG streams are never consulted, so adding or removing
/// background clients cannot perturb the victim's draws. Its TLS session
/// uses the trial's record-protection mode, `protection`.
class BackgroundClient {
 public:
  BackgroundClient(sim::EventLoop& loop, net::Topology& topo, std::size_t index,
                   const web::Website& site, BackgroundWorkload workload,
                   std::uint64_t seed, const LoadConfig& cfg,
                   const tcp::TcpConfig& tcp_cfg,
                   h2::ConnectionConfig h2_cfg,
                   tls::TlsSession::Protection protection);

  BackgroundClient(const BackgroundClient&) = delete;
  BackgroundClient& operator=(const BackgroundClient&) = delete;

  /// Schedules the client's arrival (a no-op for kIdle).
  void start();

  BackgroundWorkload workload() const { return workload_; }
  std::size_t index() const { return index_; }

 private:
  void open_connection();
  void on_ready();
  void on_data(std::uint32_t sid, std::size_t bytes, bool end_stream);
  void on_complete(std::uint32_t sid);
  void request(const std::string& path);
  void pump_bulk();
  void schedule_poll();

  sim::EventLoop& loop_;
  net::Topology& topo_;
  std::size_t index_;
  const web::Website& site_;
  BackgroundWorkload workload_;
  LoadConfig cfg_;
  h2::ConnectionConfig h2_cfg_;
  tls::TlsSession::Protection protection_;
  sim::Rng rng_;
  tcp::TcpStack stack_;

  std::unique_ptr<tls::TlsSession> tls_;
  std::unique_ptr<h2::ClientConnection> conn_;
  bool dead_ = false;

  std::vector<std::string> bulk_paths_;
  std::size_t bulk_pos_ = 0;
  int bulk_passes_done_ = 0;
  int outstanding_ = 0;
  std::string poll_path_;
  std::string drip_path_;
  sim::TimerHandle timer_;

  struct Metrics {
    obs::Counter connections;  // load.bg_connections
    obs::Counter requests;     // load.bg_requests_sent
    obs::Counter completed;    // load.bg_streams_completed
    obs::Counter bytes;        // load.bg_bytes_received
    obs::Counter deaths;       // load.bg_connection_deaths
  };
  Metrics metrics_;
};

}  // namespace h2sim::experiment
