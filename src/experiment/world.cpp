#include "experiment/world.hpp"

#include <algorithm>
#include <chrono>

#include "analysis/boundary.hpp"
#include "defense/defenses.hpp"
#include "experiment/scenario.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace h2sim::experiment {

using sim::Duration;

TrialWorld::TrialWorld(const TrialConfig& cfg)
    : cfg_(cfg), rng_server_h2_(0), rng_app_(0) {
  // Root split order is load-bearing: the behavior-golden digests pin it.
  sim::Rng root(cfg_.seed);
  sim::Rng rng_perm = root.split();
  sim::Rng rng_server_stack = root.split();
  sim::Rng rng_client_stack = root.split();
  rng_server_h2_ = root.split();
  sim::Rng rng_client_h2 = root.split();
  rng_app_ = root.split();
  sim::Rng rng_browser = root.split();
  sim::Rng rng_attack = root.split();

  // The user's survey result: a uniformly random party ranking.
  std::vector<int> perm_v = {0, 1, 2, 3, 4, 5, 6, 7};
  rng_perm.shuffle(perm_v);
  std::copy(perm_v.begin(), perm_v.end(), perm_.begin());

  // Topology with per-trial loss seeds. Background clients add access
  // segments at the same gateway without changing the victim's links.
  net::Topology::Config topo_cfg = cfg_.path;
  topo_cfg.client_side.loss_seed ^= cfg_.seed;
  topo_cfg.server_side.loss_seed ^= cfg_.seed * 0x9e3779b9ULL;
  n_background_ = std::max(0, cfg_.load.background_clients);
  topo_ = std::make_unique<net::Topology>(
      loop_, topo_cfg, 1 + static_cast<std::size_t>(n_background_));

  server_stack_ = std::make_unique<tcp::TcpStack>(
      loop_, rng_server_stack, net::Topology::kServerNode, tcp_cfg_,
      [this](net::Packet&& p) { topo_->send_from_server(std::move(p)); });
  client_stack_ = std::make_unique<tcp::TcpStack>(
      loop_, rng_client_stack, net::Topology::client_node(0), tcp_cfg_,
      [this](net::Packet&& p) { topo_->send_from_client(0, std::move(p)); });
  topo_->set_server_sink(
      [this](net::Packet&& p) { server_stack_->deliver(std::move(p)); });
  topo_->set_client_sink(
      0, [this](net::Packet&& p) { client_stack_->deliver(std::move(p)); });

  // The shared sweep-level site is only usable when the site carries no
  // per-seed randomness; otherwise build it locally, exactly as a standalone
  // trial always has. Note the rng_defense split happens in the same cases
  // either way, so the trial's RNG stream is identical with or without a
  // prebuilt site.
  const bool share_site = cfg_.prebuilt_site && site_is_seed_independent(cfg_);
  if (!share_site) {
    local_site_ = cfg_.site_builder ? cfg_.site_builder()
                                    : web::make_isidewith_site(cfg_.site);
    if (cfg_.defense.dummy_count > 0) {
      sim::Rng rng_defense = root.split();
      defense::DummyConfig dc;
      dc.count = cfg_.defense.dummy_count;
      defense::inject_dummies(local_site_, rng_defense, dc);
    }
  }
  site_ = share_site ? cfg_.prebuilt_site.get() : &local_site_;

  // Wire-level padding policy: one instance serves every connection of the
  // trial (the defense is a server deployment, not per-client). kNone
  // resolves to nullptr, leaving the app config bit-identical to an
  // undefended trial.
  wire_policy_ = defense::make_policy(cfg_.defense.padding);
  app_cfg_ = cfg_.server_app;
  app_cfg_.padding = wire_policy_.get();

  server_stack_->listen(443, [this](tcp::TcpConnection& c) {
    // Victim connections draw the historical rng_server_h2/rng_app splits;
    // background connections get streams derived from their node id instead.
    // Backgrounds connect in timing-dependent arrival order, so consuming
    // splits for them would make the victim's server-side RNG depend on how
    // many backgrounds happened to arrive first.
    const bool is_victim = c.remote_node() == net::Topology::client_node(0);
    const std::uint64_t bg_salt =
        cfg_.seed ^ (0x9e3779b97f4a7c15ULL *
                     static_cast<std::uint64_t>(c.remote_node()));
    auto sc = std::make_unique<ServerSide>();
    sc->tls = std::make_unique<tls::TlsSession>(
        c, tls::TlsSession::Role::kServer, tls_protection());
    sc->conn = std::make_unique<h2::ServerConnection>(
        loop_, *sc->tls, cfg_.server_h2,
        is_victim ? rng_server_h2_.split()
                  : sim::Rng(bg_salt ^ 0x5e77e27).split());
    sc->app = std::make_unique<web::ServerApp>(
        loop_, *site_, *sc->conn,
        is_victim ? rng_app_.split() : sim::Rng(bg_salt ^ 0xa99).split(),
        app_cfg_);
    web::ServerApp* app = sc->app.get();
    // Ground truth stays victim-only: the wire log feeds the DoM evaluation
    // of the victim's page, so background connections are never tapped.
    if (!is_victim) {
      server_conns_.push_back(std::move(sc));
      return;
    }
    // One-entry label cache: DATA frames arrive in long per-stream runs, and
    // labels are assigned before the stream's first response frame and never
    // change, so the map lookup only runs on stream switches.
    sc->conn->set_frame_tap([app, this, cached_id = 0u,
                             cached_label = static_cast<const std::string*>(
                                 nullptr)](const h2::Frame& f,
                                           sim::TimePoint t) mutable {
      analysis::ServerWireEvent ev;
      ev.time = t;
      ev.stream_id = f.stream_id;
      ev.is_data = f.type == h2::FrameType::kData;
      ev.data_bytes = ev.is_data ? f.payload.size() : 0;
      ev.end_stream = ev.is_data && f.has_flag(h2::flags::kEndStream);
      if (!cached_label || cached_id != f.stream_id) {
        auto it = app->stream_objects().find(f.stream_id);
        if (it != app->stream_objects().end()) {
          cached_id = f.stream_id;
          cached_label = &it->second;
          ev.object = *cached_label;
        }
      } else {
        ev.object = *cached_label;
      }
      wire_log_.add(std::move(ev));
    });
    server_conns_.push_back(std::move(sc));
  });

  // The adversary at the gateway. In a multi-client topology the monitor
  // sees background GETs too — the contention-induced miscounting the load
  // matrix measures.
  pipeline_ = std::make_unique<attack::AttackPipeline>(
      loop_, topo_->middlebox(), cfg_.attack, rng_attack);

  // Wire capture attaches after the pipeline (whose set_tap replaces all
  // middlebox taps); both observers see every gateway packet identically.
  if (!cfg_.capture.path.empty()) {
    capture::CaptureConfig ccfg;
    ccfg.path = cfg_.capture.path;
    ccfg.client_vantage = cfg_.capture.client_vantage;
    ccfg.gateway_vantage = cfg_.capture.gateway_vantage;
    ccfg.server_vantage = cfg_.capture.server_vantage;
    capture_session_ = std::make_unique<capture::CaptureSession>(
        loop_, *topo_, std::move(ccfg));
  }

  // Client: TCP connect -> TLS -> HTTP/2 -> browser.
  tcp::TcpConnection& client_tcp =
      client_stack_->connect(net::Topology::kServerNode, 443);
  client_tls_ = std::make_unique<tls::TlsSession>(
      client_tcp, tls::TlsSession::Role::kClient, tls_protection());
  client_conn_ = std::make_unique<h2::ClientConnection>(
      loop_, *client_tls_, cfg_.client_h2, rng_client_h2);
  browser_ = std::make_unique<web::Browser>(loop_, *client_conn_, *site_,
                                            perm_, rng_browser, cfg_.browser);
  browser_->start();

  // Background flows: one full stack per extra client, seeded from the trial
  // seed ⊕ a mix of the client index — no draw touches the victim's streams,
  // so a 0-background trial is bit-identical to the historical harness.
  backgrounds_.reserve(static_cast<std::size_t>(n_background_));
  for (int i = 1; i <= n_background_; ++i) {
    const BackgroundWorkload w =
        cfg_.load.mix.empty()
            ? BackgroundWorkload::kIdle
            : cfg_.load.mix[static_cast<std::size_t>(i - 1) %
                            cfg_.load.mix.size()];
    const std::uint64_t bg_seed =
        cfg_.seed ^ (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i));
    backgrounds_.push_back(std::make_unique<BackgroundClient>(
        loop_, *topo_, static_cast<std::size_t>(i), *site_, w, bg_seed,
        cfg_.load, tcp_cfg_, cfg_.client_h2, tls_protection()));
    backgrounds_.back()->start();
  }

  setup_nanos_ = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - setup_begin_)
          .count());
}

void TrialWorld::run_to_limit() {
  loop_.run(sim::TimePoint::origin() + cfg_.sim_limit);
}

TrialResult TrialWorld::finish() {
  // Registered only on failure, so a successful capture's snapshot is
  // unchanged.
  if (capture_session_ && !capture_session_->close()) {
    obs::metrics().counter("capture.write_failures").inc();
  }

  if (cfg_.wire_log_inspector) cfg_.wire_log_inspector(wire_log_);
  if (cfg_.trace_inspector) cfg_.trace_inspector(pipeline_->trace());

  const web::Website& site = *site_;
  web::Browser& browser = *browser_;

  // ---- Evaluation ----
  TrialResult r;
  r.truth = perm_;
  r.page_complete = browser.page_complete();
  r.failure_reason = browser.failure_reason();
  r.connection_broken =
      browser.failed() &&
      r.failure_reason.find("connection dead") != std::string::npos;
  // Counters are sourced from the current context's registry — the same
  // numbers any exported metrics snapshot shows. The registry was reset at
  // trial entry, so each value covers exactly this trial.
  auto& reg = obs::metrics();
  r.browser_reissues = static_cast<int>(reg.counter_value("web.reissues"));
  r.reset_sweeps = static_cast<int>(reg.counter_value("web.reset_sweeps"));
  r.tcp_fast_retransmits = reg.counter_value("tcp.retransmits_fast");
  r.tcp_rto_retransmits = reg.counter_value("tcp.retransmits_rto");
  r.tcp_retransmits = r.tcp_fast_retransmits + r.tcp_rto_retransmits;
  r.adversary_drops = reg.counter_value("attack.packets_dropped");
  r.requests_spaced = reg.counter_value("attack.requests_spaced");
  r.link_drops = reg.counter_value("net.link_drops");
  r.records_observed =
      static_cast<std::size_t>(reg.counter_value("attack.records_observed"));
  r.gets_counted = static_cast<int>(reg.counter_value("attack.gets_counted"));
  r.capture_packets = reg.counter_value("capture.packets");
  r.capture_bytes_written = reg.counter_value("capture.bytes_written");
  r.background_clients = n_background_;
  r.bg_connections = reg.counter_value("load.bg_connections");
  r.bg_requests_sent = reg.counter_value("load.bg_requests_sent");
  r.bg_streams_completed = reg.counter_value("load.bg_streams_completed");
  r.bg_bytes_received = reg.counter_value("load.bg_bytes_received");

  // Allocation accounting, exported both on the TrialResult (for the bench
  // perf record) and as registry counters (so metric snapshots see them
  // alongside everything else).
  const sim::EventLoop::AllocStats& alloc = loop_.alloc_stats();
  const sim::BufferPool::Stats& pool = loop_.payload_pool().stats();
  const sim::EventLoop::SchedStats& sched = loop_.sched_stats();
  reg.counter("sim.events_executed").add(loop_.executed_events());
  reg.counter("sim.sched.slots_scanned").add(sched.slots_scanned);
  reg.counter("sim.sched.cascades").add(sched.cascades);
  reg.counter("sim.sched.cancels").add(sched.cancels);
  reg.counter("sim.alloc.slab_chunks").add(alloc.slab_chunks);
  reg.counter("sim.alloc.callback_heap").add(alloc.callback_heap);
  reg.counter("sim.alloc.heap_growth").add(alloc.heap_growth);
  reg.counter("sim.alloc.pool_misses").add(pool.misses);
  reg.counter("sim.alloc.pool_hits").add(pool.hits);
  r.sim_events_executed = loop_.executed_events();
  r.packets_forwarded = reg.counter_value("net.mb_forwarded");
  r.sim_hot_path_allocs =
      alloc.slab_chunks + alloc.callback_heap + alloc.heap_growth + pool.misses;
  r.sim_sched_slots_scanned = sched.slots_scanned;
  r.sim_sched_cascades = sched.cascades;
  r.sim_sched_cancels = sched.cancels;

  double last_done = 0.0;
  for (const auto& o : browser.objects()) {
    if (o.complete) last_done = std::max(last_done, o.complete_time.to_seconds());
  }
  r.page_load_seconds = last_done;

  // Custom sites without the isidewith structure are evaluated through the
  // inspectors only.
  if (site.emblem_paths.size() < 8 || !site.find(site.html_path)) return r;

  // Size databases: the adversary's pre-compiled maps, built from the
  // public (possibly defense-transformed) site. Under a wire policy the
  // adversary knows the deployed scheme (Kerckhoffs) and compiles one entry
  // per wire size the object can be served at.
  auto db_add = [&](analysis::SizeIdentityDb& db, const std::string& label,
                    std::size_t orig_size) {
    if (wire_policy_) {
      for (std::size_t c : wire_policy_->candidates(orig_size)) db.add(label, c);
    } else {
      db.add(label, orig_size);
    }
  };
  analysis::SizeIdentityDb emblem_db;
  for (int k = 0; k < 8; ++k) {
    db_add(emblem_db, "party" + std::to_string(k),
           site.find(site.emblem_paths[static_cast<std::size_t>(k)])->size);
  }
  analysis::SizeIdentityDb html_db;
  db_add(html_db, "html", site.find(site.html_path)->size);

  const std::vector<analysis::DetectedObject> detections =
      analysis::detect_objects(pipeline_->trace());
  const analysis::SequencePrediction pred =
      analysis::predict_sequence(detections, emblem_db);
  r.predicted = pred.ranking;

  bool html_size_seen = false;
  for (const auto& d : detections) {
    if (html_db.identify(d.size_estimate)) html_size_seen = true;
  }

  // Objects of interest: the HTML, then the emblem at each burst position.
  auto outcome_for = [&](const std::string& label) {
    ObjectOutcome oo;
    oo.label = label;
    const analysis::ObjectDom od = analysis::object_dom(wire_log_, label);
    oo.primary_dom = od.primary_dom;
    oo.min_dom = od.min_dom;
    oo.primary_serialized = od.primary_serialized;
    oo.any_copy_serialized = od.any_copy_serialized;
    oo.copies = static_cast<int>(od.copies.size());
    for (const auto& o : browser.objects()) {
      if (o.label == label && o.complete) oo.delivered = true;
    }
    return oo;
  };

  ObjectOutcome html = outcome_for("html");
  html.size_identified = html_size_seen;
  r.success[0] = html.any_copy_serialized && html.size_identified;
  r.interest.push_back(std::move(html));

  for (int j = 0; j < 8; ++j) {
    const std::string label =
        "party" + std::to_string(perm_[static_cast<std::size_t>(j)]);
    ObjectOutcome oo = outcome_for(label);
    for (const auto& d : detections) {
      const auto m = emblem_db.identify(d.size_estimate);
      if (m && m->label == label) oo.size_identified = true;
    }
    const bool position_correct =
        pred.ranking.size() > static_cast<std::size_t>(j) &&
        pred.ranking[static_cast<std::size_t>(j)] == label;
    r.success[static_cast<std::size_t>(j) + 1] =
        oo.any_copy_serialized && position_correct;
    r.interest.push_back(std::move(oo));
  }

  return r;
}

namespace {
// Wall-clock world-construction time of the last run_trial on this thread.
// Deliberately NOT a per-trial metric: wall time is not a pure function of
// the config, and per-trial registries are compared bit-for-bit by the
// determinism suite. The sweep runner aggregates this into its caller's
// context instead.
thread_local std::uint64_t last_setup_nanos = 0;
}  // namespace

std::uint64_t last_trial_setup_nanos() { return last_setup_nanos; }

TrialResult run_trial(const TrialConfig& cfg) {
  // Each trial owns the *current* observability context (the thread's
  // installed obs::Context, or the process default when running standalone):
  // zero every registered metric and drop buffered trace events so counters
  // and timelines cover exactly this trial (and same-seed reruns are
  // bit-identical). run_trials() installs a fresh private context per trial,
  // which is what makes concurrent trials safe.
  obs::metrics().reset();
  obs::tracer().clear();
  obs::profiler().reset();

  TrialWorld world(cfg);
  last_setup_nanos = world.setup_nanos();
  world.run_to_limit();
  return world.finish();
}

}  // namespace h2sim::experiment
