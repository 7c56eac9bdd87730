#include "web/server_app.hpp"

#include <algorithm>
#include <vector>

#include "http/message.hpp"

namespace h2sim::web {

namespace {

// The server's production pace: the bytes of one chunk, the interval
// between chunks and the delay before the first one.
constexpr std::size_t kChunkBytes = 1024;
// Per-chunk production interval for static objects (disk/app read pace,
// ~2.5 MB/s per stream).
constexpr sim::Duration kStaticChunkInterval = sim::Duration::micros(400);
// Per-chunk interval for dynamic objects (template flushes of the survey
// result page): stretches the HTML's transmission window slightly.
constexpr sim::Duration kDynamicChunkInterval = sim::Duration::millis_f(1.5);
// Multiplicative jitter on every interval, uniform in [1-j, 1+j].
constexpr double kIntervalJitter = 0.35;
constexpr sim::Duration kStaticFirstByteDelay = sim::Duration::millis(4);
constexpr sim::Duration kDynamicFirstByteDelay = sim::Duration::millis(12);

}  // namespace

ServerApp::ServerApp(sim::EventLoop& loop, const Website& site,
                     h2::ServerConnection& conn, sim::Rng rng,
                     defense::PaddingSpec padding, ServerAppConfig cfg)
    : loop_(loop),
      site_(site),
      conn_(conn),
      rng_(rng),
      padding_(std::move(padding)),
      cfg_(cfg) {
  speed_factor_ = rng_.uniform_real(cfg_.speed_factor_lo, cfg_.speed_factor_hi);
  // Split only for randomized padding: deterministic schemes never draw,
  // and splitting unconditionally would shift rng_'s stream relative to an
  // undefended run of the same seed.
  if (!padding_.deterministic()) pad_rng_ = rng_.split();
  h2::ServerConnection::Handlers handlers;
  handlers.on_request = [this](std::uint32_t sid, const hpack::HeaderList& h) {
    handle_request(sid, h);
  };
  handlers.on_stream_reset = [this](std::uint32_t sid, h2::ErrorCode) {
    auto it = workers_.find(sid);
    if (it != workers_.end()) {
      it->second.timer.cancel();
      workers_.erase(it);
      start_next_queued();
    }
    built_bodies_.erase(sid);  // the reset flushed the stream's queue
    std::erase_if(pending_, [sid](const auto& p) { return p.stream_id == sid; });
  };
  handlers.on_connection_dead = [this](std::string_view) {
    for (auto& [sid, w] : workers_) w.timer.cancel();
    workers_.clear();
  };
  conn_.set_handlers(std::move(handlers));
}

sim::Duration ServerApp::jittered(sim::Duration base) {
  const double f =
      rng_.uniform_real(1.0 - kIntervalJitter, 1.0 + kIntervalJitter) *
      speed_factor_;
  return sim::Duration::nanos(
      static_cast<std::int64_t>(static_cast<double>(base.count_nanos()) * f));
}

void ServerApp::handle_request(std::uint32_t stream_id,
                               const hpack::HeaderList& headers) {
  auto req = http::Request::from_h2_headers(headers);
  if (!req) {
    conn_.send_rst_stream(stream_id, h2::ErrorCode::kProtocolError);
    return;
  }
  const WebObject* obj = site_.find(req->path);
  if (!obj) {
    conn_.respond_headers(stream_id, 404, {}, /*end_stream=*/true);
    return;
  }

  stream_objects_[stream_id] = obj->label;
  // Wire size is drawn here, at response time, so randomized padding pads
  // each serving of the same object independently. The padded size is what
  // the server advertises: the application genuinely serves that many bytes.
  const std::size_t wire_size = padding_.padded_size(obj->size, pad_rng_);
  conn_.respond_headers(stream_id, 200,
                        {{"content-length", std::to_string(wire_size)},
                         {"content-type", obj->content_type}});

  if (cfg_.serial_workers && !workers_.empty()) {
    // Head-of-line blocking, HTTP/1.1-like.
    pending_.push_back({stream_id, obj, wire_size});
    return;
  }
  start_worker(stream_id, obj, wire_size);
}

void ServerApp::start_worker(std::uint32_t stream_id, const WebObject* obj,
                             std::size_t wire_size) {
  Worker w;
  w.obj = obj;
  w.body = served_body(stream_id, *obj, wire_size);
  const sim::Duration first =
      jittered(obj->dynamic ? kDynamicFirstByteDelay : kStaticFirstByteDelay);
  w.timer = loop_.schedule_after(first, [this, stream_id] { produce_chunk(stream_id); });
  workers_[stream_id] = std::move(w);
}

void ServerApp::start_next_queued() {
  if (!cfg_.serial_workers || pending_.empty() || !workers_.empty()) return;
  const PendingRequest next = pending_.front();
  pending_.pop_front();
  start_worker(next.stream_id, next.obj, next.wire_size);
}

std::span<const std::uint8_t> ServerApp::served_body(std::uint32_t stream_id,
                                                     const WebObject& obj,
                                                     std::size_t wire_size) {
  if (wire_size <= obj.size) return site_.body(obj).first(wire_size);
  release_sent_bodies();
  // The object's body, then padding whose byte at offset pos is
  // pos*131 + wire_size, copied from the site's pattern in runs that wrap
  // on its 256-byte period where the padding outruns it.
  std::vector<std::uint8_t>& body = built_bodies_[stream_id];
  body.reserve(wire_size);
  const auto object = site_.body(obj);
  body.assign(object.begin(), object.end());
  while (body.size() < wire_size) {
    const auto run =
        site_.filler(body.size() * 131 + wire_size, wire_size - body.size());
    body.insert(body.end(), run.begin(), run.end());
  }
  return body;
}

void ServerApp::release_sent_bodies() {
  std::erase_if(built_bodies_, [this](const auto& entry) {
    const std::uint32_t sid = entry.first;
    if (workers_.contains(sid)) return false;
    const h2::Stream* s = conn_.find_stream(sid);
    return s == nullptr || s->queued_bytes() == 0;
  });
}

void ServerApp::produce_chunk(std::uint32_t stream_id) {
  auto it = workers_.find(stream_id);
  if (it == workers_.end()) return;
  Worker& w = it->second;

  const std::size_t n = std::min(kChunkBytes, w.body.size() - w.produced);
  const auto chunk = w.body.subspan(w.produced, n);
  w.produced += n;
  const bool last = w.produced >= w.body.size();
  conn_.send_body_chunk(stream_id, chunk, last);

  if (last) {
    workers_.erase(it);
    start_next_queued();
    return;
  }
  sim::Duration base =
      w.obj->dynamic ? kDynamicChunkInterval : kStaticChunkInterval;
  base = sim::Duration::nanos(static_cast<std::int64_t>(
      static_cast<double>(base.count_nanos()) * w.obj->pace_factor));
  const sim::Duration next = jittered(base);
  w.timer = loop_.schedule_after(next, [this, stream_id] { produce_chunk(stream_id); });
}

}  // namespace h2sim::web
