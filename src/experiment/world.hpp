#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/trace.hpp"
#include "attack/pipeline.hpp"
#include "capture/session.hpp"
#include "experiment/background.hpp"
#include "experiment/harness.hpp"
#include "h2/server.hpp"
#include "net/topology.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/session.hpp"
#include "web/browser.hpp"
#include "web/server_app.hpp"

namespace h2sim::experiment {

/// One fully constructed trial: the exact world `run_trial` has always
/// built, with construction order, RNG split order, and event scheduling
/// order preserved statement-for-statement — the behavior-golden digests pin
/// that equivalence. The build (constructor), run_to_limit() and finish()
/// phases are separate so a harness can time world setup, simulation and
/// evaluation independently.
class TrialWorld {
 public:
  /// `site`, when given, must be the site `cfg` would build (run_trials
  /// passes one only for a seed-independent config, see runner.cpp); it is
  /// read-only and must outlive the world. Without it the world builds its
  /// own site.
  explicit TrialWorld(const TrialConfig& cfg,
                      const web::Website* site = nullptr);

  TrialWorld(const TrialWorld&) = delete;
  TrialWorld& operator=(const TrialWorld&) = delete;

  /// Runs the simulation to the configured sim_limit.
  void run_to_limit();

  /// Closes capture, fires the inspectors, and evaluates the attack —
  /// byte-for-byte the historical run_trial epilogue.
  TrialResult finish();

 private:
  const TrialConfig cfg_;

  /// Every TLS session of the trial computes ciphertext only when a capture
  /// session is there to see it; no TrialResult depends on those bytes.
  tls::TlsSession::Protection tls_protection() const {
    return capture_session_ ? tls::TlsSession::Protection::kFull
                            : tls::TlsSession::Protection::kElided;
  }

  struct ServerSide {
    std::unique_ptr<tls::TlsSession> tls;
    std::unique_ptr<h2::ServerConnection> conn;
    std::unique_ptr<web::ServerApp> app;
  };

  // Members mirror the historical run_trial locals in declaration order, so
  // destruction runs in the same (reverse) order the stack unwind always
  // used.
  sim::EventLoop loop_;
  sim::Rng rng_server_h2_;  // stays live: split per victim accept
  sim::Rng rng_app_;        // stays live: split per victim accept
  std::array<int, 8> perm_{};
  int n_background_ = 0;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<tcp::TcpStack> server_stack_;
  std::unique_ptr<tcp::TcpStack> client_stack_;
  web::Website local_site_;
  const web::Website* site_ = nullptr;
  analysis::WireLog wire_log_;
  std::vector<std::unique_ptr<ServerSide>> server_conns_;
  std::unique_ptr<attack::AttackPipeline> pipeline_;
  std::unique_ptr<capture::CaptureSession> capture_session_;
  std::unique_ptr<tls::TlsSession> client_tls_;
  std::unique_ptr<h2::ClientConnection> client_conn_;
  std::unique_ptr<web::Browser> browser_;
  std::vector<std::unique_ptr<BackgroundClient>> backgrounds_;
};

}  // namespace h2sim::experiment
