#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dom.hpp"
#include "analysis/predictor.hpp"
#include "analysis/trace.hpp"
#include "attack/pipeline.hpp"
#include "defense/policy.hpp"
#include "experiment/background.hpp"
#include "h2/connection.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "web/browser.hpp"
#include "web/server_app.hpp"
#include "web/website.hpp"

namespace h2sim::experiment {

/// Everything one Monte-Carlo trial needs. All defaults model the paper's
/// Section V setup: a 1 Gbps lab gateway in front of an Internet path to the
/// isidewith server, Firefox-like client, multiplexing HTTP/2 server.
struct TrialConfig {
  std::uint64_t seed = 1;

  net::Path::Config path = default_path();
  h2::ConnectionConfig server_h2 = default_server_h2();
  h2::ConnectionConfig client_h2 = default_client_h2();
  web::ServerAppConfig server_app;
  web::BrowserConfig browser;
  web::IsidewithConfig site;
  attack::AttackConfig attack = default_attack_off();
  sim::Duration sim_limit = sim::Duration::seconds(120);

  /// Gateway contention (see experiment/background.hpp): N extra client
  /// stacks beside the victim, each with its own TCP/TLS/H2 stack and a
  /// seed-derived workload, all sharing the gateway links. The default
  /// (0 background clients) is the classic single-client trial, and its
  /// RNG streams, packets, and digests are bit-identical to the historical
  /// harness — background clients draw from seed ⊕ mix(index), never from
  /// the victim's streams.
  LoadConfig load;

  /// Server/site-side defenses (see defense/defenses.hpp). The adversary's
  /// size database is built from the *transformed* site — the attacker knows
  /// the public site, defenses win only by making sizes ambiguous.
  struct DefenseOptions {
    std::size_t pad_quantum = 0;  // 0 = off; offline site transform
    int dummy_count = 0;          // 0 = off
    /// Wire-level padding (defense/policy.hpp): the live server pads each
    /// response as it serves it, so padding bytes ride real DATA frames
    /// through tls/tcp/net and every observer sees the defended wire. The
    /// adversary still knows the scheme: its size databases hold
    /// policy->candidates(original size) instead of the original size.
    /// Orthogonal to pad_quantum (which models pre-padded site content);
    /// kNone leaves the trial bit-identical to the historical harness.
    defense::PaddingSpec padding;
  };
  DefenseOptions defense;

  /// Wire capture (src/capture): when `path` is non-empty the trial exports
  /// every packet at the enabled vantage points as a PCAPNG file. Capture is
  /// observation-only — the TrialResult is identical with it on or off,
  /// except for the capture_* counters.
  struct CaptureOptions {
    std::string path;  // empty = capture off
    bool client_vantage = false;
    bool gateway_vantage = true;
    bool server_vantage = false;
  };
  CaptureOptions capture;

  /// Diagnostic hook: invoked with the ground-truth wire log after the run.
  std::function<void(const analysis::WireLog&)> wire_log_inspector;
  /// Diagnostic hook: invoked with the adversary's observed record trace.
  std::function<void(const analysis::PacketTrace&)> trace_inspector;
  /// Diagnostic hook: invoked with the trial's final metrics snapshot (the
  /// registry is reset at trial entry, so the snapshot covers exactly this
  /// trial).
  std::function<void(const obs::MetricsSnapshot&)> metrics_inspector;

  /// Custom website builder: when set, replaces the default isidewith site.
  /// The emblem/html evaluation fields of TrialResult are only meaningful
  /// when the custom site defines `emblem_paths`/`html_path` analogously;
  /// otherwise consume results through the inspectors above.
  std::function<web::Website()> site_builder;

  /// Sweep-level shared site (see experiment::ScenarioTemplate): a fully
  /// built, defense-transformed, content-materialized site reused read-only
  /// by every trial of a sweep. Honored only when the site really is
  /// seed-independent — no site_builder and no dummy injection — otherwise
  /// the trial builds its own site exactly as before. The site a trial sees
  /// is byte-identical either way, so results do not depend on whether a
  /// sweep shared it.
  std::shared_ptr<const web::Website> prebuilt_site;

  static net::Path::Config default_path();
  static h2::ConnectionConfig default_server_h2();
  static h2::ConnectionConfig default_client_h2();
  static attack::AttackConfig default_attack_off();
};

/// The paper's staged Section-V attack configuration.
attack::AttackConfig full_attack_config();

/// Single-target mode: clean GET counting (no phase-1 spacing), trigger at
/// the GET carrying the target object, then disrupt + serialize.
attack::AttackConfig single_target_attack_config(int target_get_index);

/// Jitter-only adversary (Table I).
attack::AttackConfig jitter_only_config(sim::Duration spacing);

/// Jitter + whole-run bandwidth limit (Figure 5).
attack::AttackConfig jitter_throttle_config(sim::Duration spacing, double bps);

struct ObjectOutcome {
  std::string label;
  double primary_dom = 1.0;        // DoM of the original transmission copy
  double min_dom = 1.0;            // best copy (reissues included)
  bool primary_serialized = false;
  bool any_copy_serialized = false;
  int copies = 0;
  bool size_identified = false;    // boundary detector + size DB found it
  bool delivered = false;          // browser completed the object

  bool operator==(const ObjectOutcome&) const = default;
};

struct TrialResult {
  bool page_complete = false;
  bool connection_broken = false;
  std::string failure_reason;

  /// Outcomes for the 9 objects of interest: index 0 = the result HTML,
  /// 1..8 = the emblem at burst position 1..8.
  std::vector<ObjectOutcome> interest;

  std::array<int, 8> truth;                 // party id at each position
  std::vector<std::string> predicted;       // predicted party label by position
  /// success[i]: paper's criterion for object i (DoM driven to 0 and the
  /// object identified from the encrypted trace; for emblems, identified at
  /// the correct ranking position).
  std::array<bool, 9> success{};

  std::uint64_t tcp_retransmits = 0;   // client + server, fast + RTO
  std::uint64_t tcp_fast_retransmits = 0;
  std::uint64_t tcp_rto_retransmits = 0;
  int browser_reissues = 0;
  int reset_sweeps = 0;
  std::uint64_t adversary_drops = 0;
  std::uint64_t requests_spaced = 0;
  std::uint64_t link_drops = 0;
  std::size_t records_observed = 0;
  int gets_counted = 0;
  double page_load_seconds = 0.0;

  /// Gateway-contention accounting (all 0 in single-client trials, which is
  /// what keeps the historical digests byte-identical — digest.cpp only
  /// hashes these when background_clients > 0).
  int background_clients = 0;
  std::uint64_t bg_connections = 0;
  std::uint64_t bg_requests_sent = 0;
  std::uint64_t bg_streams_completed = 0;
  std::uint64_t bg_bytes_received = 0;

  /// Wire-capture accounting (0 when capture is off): packets exported and
  /// pcapng bytes produced. Pure functions of the config like every other
  /// field, so captures participate in the determinism comparison.
  std::uint64_t capture_packets = 0;
  std::uint64_t capture_bytes_written = 0;

  /// Perf accounting for the benchmark-regression gate: total events the
  /// trial's loop executed, packets the middlebox forwarded, and heap
  /// allocations attributable to the simulator hot path (event-slab growth,
  /// oversized callbacks, heap-array growth, payload-pool misses). All three
  /// are pure functions of the config, so they participate in the
  /// determinism comparison like every other field.
  std::uint64_t sim_events_executed = 0;
  std::uint64_t packets_forwarded = 0;
  std::uint64_t sim_hot_path_allocs = 0;

  /// Timing-wheel work counters (see sim::EventLoop::SchedStats): occupancy
  /// bitmap words examined, events cascaded to a lower level, and O(1)
  /// cancels. Deterministic like the other perf fields.
  std::uint64_t sim_sched_slots_scanned = 0;
  std::uint64_t sim_sched_cascades = 0;
  std::uint64_t sim_sched_cancels = 0;

  /// Wire-level retransmission count as a tshark user would measure it:
  /// TCP retransmissions plus duplicate application requests.
  std::uint64_t wire_retransmissions() const {
    return tcp_retransmits + static_cast<std::uint64_t>(browser_reissues);
  }

  /// Field-wise equality; the parallel runner's determinism guarantee is
  /// stated (and tested) in terms of this comparison.
  bool operator==(const TrialResult&) const = default;
};

TrialResult run_trial(const TrialConfig& cfg);

/// Wall-clock nanoseconds the calling thread's most recent run_trial spent
/// constructing the world (everything before the first simulated event).
/// Thread-local and nondeterministic by nature, which is why it lives beside
/// the TrialResult instead of on it; run_trials() aggregates it into the
/// sweep-level experiment.setup_* gauges.
std::uint64_t last_trial_setup_nanos();

/// GET index (1-based, as the monitor counts) of the result HTML and of the
/// j-th emblem (j in 0..7) under clean counting (no reissues before them).
int html_get_index(const web::IsidewithConfig& site);
int emblem_get_index(const web::IsidewithConfig& site, int j);

}  // namespace h2sim::experiment
