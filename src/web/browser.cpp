#include "web/browser.hpp"

#include <algorithm>
#include <cassert>

#include "http/message.hpp"
#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace h2sim::web {

using sim::Duration;
using sim::TimePoint;

namespace {

/// No response byte at all for this long after a GET -> reissue the request
/// on a fresh stream (the "retransmission requests" whose copies intensify
/// multiplexing in the paper's Table I), at most kMaxReissues times.
constexpr Duration kFirstByteStallTimeout = Duration::millis(1000);
constexpr int kMaxReissues = 2;
/// No progress on an incomplete response for this long -> RST_STREAM all
/// pending streams and re-request after a backoff that doubles per sweep
/// (the paper's Figure 6 reset behaviour); the page fails after kMaxResets.
constexpr Duration kResetStallTimeout = Duration::millis(3500);
constexpr Duration kResetBackoff = Duration::millis(200);
constexpr int kMaxResets = 6;
constexpr Duration kPageDeadline = Duration::seconds(60);

}  // namespace

Browser::Browser(sim::EventLoop& loop, h2::ClientConnection& conn,
                 const Website& site, std::array<int, 8> permutation,
                 sim::Rng rng, BrowserConfig cfg)
    : loop_(loop),
      conn_(conn),
      site_(site),
      permutation_(permutation),
      rng_(rng),
      cfg_(cfg) {
  auto& reg = obs::metrics();
  metrics_.requests_sent = reg.counter("web.requests_sent");
  metrics_.reissues = reg.counter("web.reissues");
  metrics_.rerequests = reg.counter("web.rerequests");
  metrics_.reset_sweeps = reg.counter("web.reset_sweeps");
  metrics_.objects_completed = reg.counter("web.objects_completed");
  metrics_.page_failures = reg.counter("web.page_failures");

  // Resolve EMBLEM_k placeholders via the survey-result permutation: the
  // k-th image requested is the party ranked k-th by this user.
  steps_ = site.schedule;
  for (RequestStep& s : steps_) {
    if (s.path.rfind("EMBLEM_", 0) == 0) {
      const int slot = std::stoi(s.path.substr(7));
      s.path = site.emblem_paths.at(
          static_cast<std::size_t>(permutation_.at(static_cast<std::size_t>(slot))));
    }
  }

  if (cfg_.randomize_embedded_order) {
    // §VII defense: shuffle which object is requested at each gated slot
    // (the timing skeleton stays, the object-to-slot mapping randomizes).
    std::vector<std::size_t> gated;
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      if (steps_[i].gate != Gate::kNone) gated.push_back(i);
    }
    std::vector<std::string> paths;
    paths.reserve(gated.size());
    for (std::size_t i : gated) paths.push_back(steps_[i].path);
    rng_.shuffle(paths);
    for (std::size_t j = 0; j < gated.size(); ++j) steps_[gated[j]].path = paths[j];
  }

  objects_.resize(steps_.size());
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    objects_[i].path = steps_[i].path;
    const WebObject* obj = site_.find(steps_[i].path);
    objects_[i].label = obj ? obj->label : steps_[i].path;
    if (steps_[i].path == site_.html_path) html_index_ = i;
  }

  h2::ClientConnection::Handlers handlers;
  handlers.on_ready = [this] { dispatch(); };
  handlers.on_response_headers = [this](std::uint32_t sid,
                                        const hpack::HeaderList& h) {
    on_response_headers(sid, h);
  };
  handlers.on_response_data = [this](std::uint32_t sid,
                                     std::span<const std::uint8_t> b, bool end) {
    on_response_data(sid, b, end);
  };
  handlers.on_reset = [this](std::uint32_t sid, h2::ErrorCode code) {
    on_stream_reset(sid, code);
  };
  handlers.on_connection_dead = [this](std::string_view reason) {
    fail(std::string("connection dead: ") + std::string(reason));
  };
  conn_.set_handlers(std::move(handlers));
}

void Browser::start() {
  if (started_) return;
  started_ = true;
  last_issue_time_ = loop_.now();
  deadline_timer_ = loop_.schedule_after(kPageDeadline, [this] {
    if (!page_complete() && !failed_) fail("page deadline exceeded");
  });
  if (conn_.ready()) dispatch();
}

bool Browser::page_complete() const {
  return std::all_of(objects_.begin(), objects_.end(),
                     [](const ObjectState& o) { return o.complete; });
}

Duration Browser::noisy(Duration gap, double lo, double hi) {
  const double f = rng_.uniform_real(lo, hi);
  return Duration::nanos(
      static_cast<std::int64_t>(static_cast<double>(gap.count_nanos()) * f));
}

void Browser::dispatch() {
  if (failed_ || !started_ || !conn_.ready()) return;
  // Find the first step not yet issued (skipping completed re-sweeps).
  for (std::size_t i = 0; i < steps_.size(); ++i) {
    ObjectState& o = objects_[i];
    if (o.issued || o.complete) continue;

    // Gate check: parked steps are resumed by gate events re-calling
    // dispatch().
    if (steps_[i].gate == Gate::kHtmlFirstByte && !html_first_byte_) return;
    if (steps_[i].gate == Gate::kHtmlComplete && !html_complete_) return;

    // Post-reset re-requests go one at a time, highest priority first (the
    // paper: "the client resends GET requests if a high priority object is
    // not yet received") — completion re-triggers dispatch.
    if (o.rerequested) {
      for (std::size_t j = 0; j < steps_.size(); ++j) {
        const ObjectState& other = objects_[j];
        if (j != i && other.rerequested && other.issued && !other.complete) {
          return;
        }
      }
    }

    if (!o.drawn_gap) {
      o.drawn_gap = o.rerequested
                        ? Duration::millis(10)
                        : noisy(steps_[i].gap_from_prev, steps_[i].noise_lo,
                                steps_[i].noise_hi);
    }
    const Duration gap = *o.drawn_gap;
    const TimePoint due = last_issue_time_ + gap;
    if (due <= loop_.now()) {
      issue(i, o.rerequested);
      continue;  // move on to the next step immediately
    }
    dispatch_timer_.cancel();
    dispatch_timer_ = loop_.schedule_after(due - loop_.now(), [this] { dispatch(); });
    return;
  }
}

void Browser::issue(std::size_t index, bool is_rerequest) {
  ObjectState& o = objects_[index];
  http::Request req;
  req.authority = "www.isidewith.com";
  req.path = o.path;
  // Realistic header bulk so a GET record is clearly larger on the wire than
  // coalesced WINDOW_UPDATE records (the monitor classifies by size, like
  // the paper's content-type==23 + heuristics).
  req.extra.push_back({"user-agent", "Mozilla/5.0 (X11; Linux x86_64; rv:74.0) "
                                     "Gecko/20100101 Firefox/74.0"});
  req.extra.push_back({"accept", "text/html,application/xhtml+xml,*/*;q=0.8"});
  req.extra.push_back({"referer", "https://www.isidewith.com/polls"});
  req.extra.push_back({"cookie", "sessionid=a1b2c3d4e5f6a7b8"});

  const std::uint32_t sid = conn_.send_request(req.to_h2_headers());
  stream_to_object_[sid] = index;
  o.streams.push_back(sid);
  o.stream_bytes[sid] = 0;
  if (!o.issued) {
    o.issued = true;
    o.first_request_time = loop_.now();
    last_issue_time_ = loop_.now();
  }
  metrics_.requests_sent.inc();
  if (is_rerequest) metrics_.rerequests.inc();

  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kWeb)) {
    tr.instant(obs::Component::kWeb, "GET " + o.label, loop_.now(),
               obs::track::kClient, sid,
               obs::TraceArgs()
                   .add("path", o.path)
                   .add("reissue", o.reissues)
                   .add("rerequest", is_rerequest ? 1 : 0)
                   .take());
  }

  // Arm the stall (reissue) and reset timers.
  o.stall_timer.cancel();
  o.stall_timer = loop_.schedule_after(kFirstByteStallTimeout,
                                       [this, index] { stall_fired(index); });
  o.reset_timer.cancel();
  o.reset_timer = loop_.schedule_after(kResetStallTimeout,
                                       [this, index] { reset_fired(index); });
}

void Browser::on_response_headers(std::uint32_t sid, const hpack::HeaderList& headers) {
  auto it = stream_to_object_.find(sid);
  if (it == stream_to_object_.end()) return;
  const std::size_t index = it->second;
  ObjectState& o = objects_[index];
  auto resp = http::Response::from_h2_headers(headers);
  if (resp) o.expected = resp->content_length;
  note_progress(index);
}

void Browser::on_response_data(std::uint32_t sid, std::span<const std::uint8_t> bytes,
                               bool end_stream) {
  auto it = stream_to_object_.find(sid);
  if (it == stream_to_object_.end()) return;
  const std::size_t index = it->second;
  ObjectState& o = objects_[index];
  if (o.complete) return;
  o.stream_bytes[sid] += bytes.size();
  note_progress(index);
  const bool done = end_stream || (o.expected > 0 && o.stream_bytes[sid] >= o.expected);
  if (done) object_completed(index, sid);
}

void Browser::note_progress(std::size_t index) {
  last_any_progress_ = loop_.now();
  ObjectState& o = objects_[index];
  if (!o.first_byte) {
    o.first_byte = true;
    o.stall_timer.cancel();
    if (index == html_index_ && !html_first_byte_) {
      html_first_byte_ = true;
      dispatch();
    }
  }
  if (!o.complete) {
    o.reset_timer.cancel();
    o.reset_timer = loop_.schedule_after(kResetStallTimeout,
                                         [this, index] { reset_fired(index); });
  }
}

void Browser::object_completed(std::size_t index, std::uint32_t winning_sid) {
  ObjectState& o = objects_[index];
  o.complete = true;
  o.complete_time = loop_.now();
  o.stall_timer.cancel();
  o.reset_timer.cancel();
  // Cancel duplicate copies still in flight.
  for (const std::uint32_t sid : o.streams) {
    if (sid != winning_sid && conn_.find_stream(sid)) {
      conn_.cancel(sid);
    }
  }
  if (index == html_index_ && !html_complete_) html_complete_ = true;
  metrics_.objects_completed.inc();
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kWeb)) {
    tr.complete(obs::Component::kWeb, o.label, o.first_request_time, loop_.now(),
                obs::track::kClient, winning_sid,
                obs::TraceArgs()
                    .add("path", o.path)
                    .add("bytes", o.stream_bytes[winning_sid])
                    .add("reissues", o.reissues)
                    .take());
  }
  dispatch();  // may unpark gated or completion-gated re-requested steps
}

void Browser::on_stream_reset(std::uint32_t sid, h2::ErrorCode) {
  auto it = stream_to_object_.find(sid);
  if (it == stream_to_object_.end()) return;
  const std::size_t index = it->second;
  ObjectState& o = objects_[index];
  // A server-side refusal: drop this copy; the reset/stall timers recover.
  std::erase(o.streams, sid);
}

void Browser::stall_fired(std::size_t index) {
  ObjectState& o = objects_[index];
  if (o.complete || o.first_byte || failed_) return;
  if (o.reissues >= kMaxReissues) return;  // reset timer takes over
  // Only treat the request as lost when the whole connection has gone
  // quiet; if other responses are streaming, this request is merely queued
  // behind them and a duplicate would just add load.
  if (loop_.now() - last_any_progress_ < kFirstByteStallTimeout / 2) {
    o.stall_timer = loop_.schedule_after(kFirstByteStallTimeout,
                                         [this, index] { stall_fired(index); });
    return;
  }
  ++o.reissues;
  metrics_.reissues.inc();
  issue(index, /*is_rerequest=*/false);
}

void Browser::reset_fired(std::size_t index) {
  ObjectState& o = objects_[index];
  if (o.complete || failed_) return;
  perform_reset_sweep();
}

void Browser::perform_reset_sweep() {
  metrics_.reset_sweeps.inc();
  if (++reset_sweeps_ > kMaxResets) {
    fail("too many reset sweeps");
    return;
  }
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kWeb)) {
    tr.instant(obs::Component::kWeb, "reset-sweep", loop_.now(),
               obs::track::kClient, 0,
               obs::TraceArgs().add("sweep", reset_sweeps_).take());
  }
  // Reset every stream of every incomplete issued object; the objects go
  // back to the un-issued pool and are re-requested after a backoff.
  for (std::size_t i = 0; i < objects_.size(); ++i) {
    ObjectState& o = objects_[i];
    if (!o.issued || o.complete) continue;
    o.stall_timer.cancel();
    o.reset_timer.cancel();
    for (const std::uint32_t sid : o.streams) {
      if (conn_.find_stream(sid)) conn_.cancel(sid);
      stream_to_object_.erase(sid);
    }
    o.streams.clear();
    o.stream_bytes.clear();
    o.issued = false;
    o.first_byte = false;
    o.reissues = 0;
    o.rerequested = true;
    o.drawn_gap.reset();
  }
  // Exponential backoff across sweeps, mimicking the client TCP's growing
  // retransmission timeouts the paper describes after a reset.
  sim::Duration backoff = kResetBackoff;
  for (int i = 1; i < reset_sweeps_; ++i) backoff = backoff * 2;
  dispatch_timer_.cancel();
  dispatch_timer_ = loop_.schedule_after(backoff, [this] {
    last_issue_time_ = loop_.now();
    dispatch();
  });
}

void Browser::fail(std::string reason) {
  if (failed_) return;
  failed_ = true;
  failure_reason_ = std::move(reason);
  for (auto& o : objects_) {
    o.stall_timer.cancel();
    o.reset_timer.cancel();
  }
  dispatch_timer_.cancel();
  deadline_timer_.cancel();
  metrics_.page_failures.inc();
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kWeb)) {
    tr.instant(obs::Component::kWeb, "page-failed", loop_.now(),
               obs::track::kClient, 0,
               obs::TraceArgs().add("reason", failure_reason_).take());
  }
}

}  // namespace h2sim::web
