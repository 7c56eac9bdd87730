#include "experiment/background.hpp"

#include <utility>

#include "http/message.hpp"
#include "obs/context.hpp"

namespace h2sim::experiment {

using sim::Duration;

namespace {

/// Mean of the exponential arrival offset before a background client opens
/// its connection (per-client draw from its own seed stream).
constexpr Duration kArrivalMean = Duration::millis(150);
/// kBulk: outstanding requests kept in flight over its one pass of the
/// site's objects.
constexpr int kBulkConcurrency = 8;
/// kPoll: mean exponential think time between polls.
constexpr Duration kPollMean = Duration::millis(250);
/// kSlowDrip: advertised per-stream window, bytes.
constexpr std::uint32_t kDripWindow = 2048;

}  // namespace

const char* to_string(BackgroundWorkload w) {
  switch (w) {
    case BackgroundWorkload::kIdle: return "idle";
    case BackgroundWorkload::kBulk: return "bulk";
    case BackgroundWorkload::kPoll: return "poll";
    case BackgroundWorkload::kSlowDrip: return "slow-drip";
  }
  return "?";
}

BackgroundClient::BackgroundClient(sim::EventLoop& loop, net::Topology& topo,
                                   std::size_t index, const web::Website& site,
                                   BackgroundWorkload workload,
                                   std::uint64_t seed,
                                   h2::ConnectionConfig h2_cfg,
                                   tls::TlsSession::Protection protection)
    : loop_(loop),
      topo_(topo),
      index_(index),
      site_(site),
      workload_(workload),
      h2_cfg_(h2_cfg),
      protection_(protection),
      rng_(seed),
      stack_(loop, rng_.split(), net::Topology::client_node(index),
             [&topo, index](net::Packet&& p) {
               topo.send_from_client(index, std::move(p));
             }) {
  topo_.set_client_sink(index_, [this](net::Packet&& p) {
    stack_.deliver(std::move(p));
  });

  auto& reg = obs::metrics();
  metrics_.connections = reg.counter("load.bg_connections");
  metrics_.requests = reg.counter("load.bg_requests_sent");
  metrics_.completed = reg.counter("load.bg_streams_completed");
  metrics_.bytes = reg.counter("load.bg_bytes_received");
  metrics_.deaths = reg.counter("load.bg_connection_deaths");

  // Workload targets, resolved once so request-time work stays allocation
  // light. Map order is sorted by path, hence deterministic.
  for (const auto& [path, obj] : site_.objects()) {
    bulk_paths_.push_back(path);
    if (drip_path_.empty() ||
        obj.size > site_.find(drip_path_)->size) {
      drip_path_ = path;
    }
  }
  poll_path_ = site_.find(site_.html_path) ? site_.html_path
               : bulk_paths_.empty()       ? std::string{}
                                           : bulk_paths_.front();

  if (workload_ == BackgroundWorkload::kSlowDrip) {
    // Window-limited slow read: the server can never have more than
    // kDripWindow bytes in flight on the stream, so a large object trickles
    // for the whole trial (the slow-HTTP/2-DoS occupancy pattern).
    h2_cfg_.initial_window_size = kDripWindow;
    h2_cfg_.connection_window_bonus = 0;
  }
}

void BackgroundClient::start() {
  if (workload_ == BackgroundWorkload::kIdle) return;
  if (bulk_paths_.empty()) return;  // nothing to request from an empty site
  const Duration offset = Duration::seconds_f(
      rng_.exponential(kArrivalMean.to_seconds()));
  timer_ = loop_.schedule_after(offset, [this] { open_connection(); });
}

void BackgroundClient::open_connection() {
  tcp::TcpConnection& tcp = stack_.connect(net::Topology::kServerNode, 443);
  tls_ = std::make_unique<tls::TlsSession>(
      tcp, tls::TlsSession::Role::kClient, protection_);
  conn_ = std::make_unique<h2::ClientConnection>(loop_, *tls_, h2_cfg_,
                                                 rng_.split());
  h2::ClientConnection::Handlers handlers;
  handlers.on_ready = [this] { on_ready(); };
  handlers.on_response_data = [this](std::uint32_t sid,
                                     std::span<const std::uint8_t> bytes,
                                     bool end_stream) {
    on_data(sid, bytes.size(), end_stream);
  };
  handlers.on_reset = [this](std::uint32_t sid, h2::ErrorCode) {
    on_complete(sid);
  };
  handlers.on_connection_dead = [this](std::string_view reason) {
    if (dead_) return;
    dead_ = true;
    metrics_.deaths.inc();
    auto& tr = obs::tracer();
    if (tr.enabled(obs::Component::kExperiment)) {
      tr.instant(obs::Component::kExperiment, "bg-dead", loop_.now(),
                 obs::track::kClient, index_,
                 obs::TraceArgs().add("reason", reason).take());
    }
  };
  conn_->set_handlers(std::move(handlers));
  metrics_.connections.inc();
  if (conn_->ready()) on_ready();
}

void BackgroundClient::on_ready() {
  switch (workload_) {
    case BackgroundWorkload::kIdle:
      break;
    case BackgroundWorkload::kBulk:
      pump_bulk();
      break;
    case BackgroundWorkload::kPoll:
      request(poll_path_);
      break;
    case BackgroundWorkload::kSlowDrip:
      request(drip_path_);
      break;
  }
}

void BackgroundClient::request(const std::string& path) {
  if (dead_ || path.empty()) return;
  http::Request req;
  req.authority = "www.isidewith.com";
  req.path = path;
  req.extra.push_back({"user-agent", "h2sim-background/1.0"});
  conn_->send_request(req.to_h2_headers());
  ++outstanding_;
  metrics_.requests.inc();
}

void BackgroundClient::on_data(std::uint32_t sid, std::size_t bytes,
                               bool end_stream) {
  metrics_.bytes.add(bytes);
  if (end_stream) on_complete(sid);
}

void BackgroundClient::on_complete(std::uint32_t /*sid*/) {
  if (outstanding_ > 0) --outstanding_;
  metrics_.completed.inc();
  if (dead_) return;
  switch (workload_) {
    case BackgroundWorkload::kIdle:
      break;
    case BackgroundWorkload::kBulk:
      pump_bulk();
      break;
    case BackgroundWorkload::kPoll:
      schedule_poll();
      break;
    case BackgroundWorkload::kSlowDrip:
      // Endless slow read: as soon as the trickle finishes, start it over.
      request(drip_path_);
      break;
  }
}

void BackgroundClient::pump_bulk() {
  // One pass over the site's objects; the connection then idles out.
  while (outstanding_ < kBulkConcurrency && bulk_pos_ < bulk_paths_.size()) {
    request(bulk_paths_[bulk_pos_++]);
  }
}

void BackgroundClient::schedule_poll() {
  const Duration think =
      Duration::seconds_f(rng_.exponential(kPollMean.to_seconds()));
  timer_ = loop_.schedule_after(think, [this] { request(poll_path_); });
}

}  // namespace h2sim::experiment
