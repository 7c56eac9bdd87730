#include "h2/connection.hpp"

#include <algorithm>
#include <cassert>

#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace h2sim::h2 {

const char* to_string(SchedulerKind k) {
  switch (k) {
    case SchedulerKind::kRoundRobin: return "round-robin";
    case SchedulerKind::kSequential: return "sequential";
    case SchedulerKind::kRandom: return "random";
    case SchedulerKind::kWeighted: return "weighted";
  }
  return "?";
}

Connection::Connection(sim::EventLoop& loop, tls::TlsSession& tls, bool is_server,
                       ConnectionConfig cfg, sim::Rng rng)
    : loop_(loop),
      tls_(tls),
      is_server_(is_server),
      cfg_(cfg),
      rng_(rng),
      next_local_stream_(is_server ? 2 : 1) {
  auto& reg = obs::metrics();
  const std::string side = is_server ? "h2.server." : "h2.client.";
  metrics_.frames_sent = reg.counter(side + "frames_sent");
  metrics_.frames_received = reg.counter(side + "frames_received");
  metrics_.data_bytes_sent = reg.counter(side + "data_bytes_sent");
  metrics_.rst_sent = reg.counter(side + "rst_sent");
  metrics_.rst_received = reg.counter(side + "rst_received");
  metrics_.streams_opened = reg.counter(side + "streams_opened");
  metrics_.flow_stalls = reg.counter(side + "flow_stalls");

  hpack_decoder_.set_max_table_size(4096);

  tls::TlsSession::Callbacks cbs;
  cbs.on_established = [this] { on_tls_established(); };
  cbs.on_plaintext = [this](std::span<const std::uint8_t> b) { on_plaintext(b); };
  cbs.on_peer_close = [this] {
    if (!dead_) {
      dead_ = true;
      on_dead("peer-close");
    }
  };
  cbs.on_aborted = [this](std::string_view reason) {
    if (!dead_) {
      dead_ = true;
      on_dead(reason);
    }
  };
  cbs.on_writable = [this] {
    if (!dead_ && handshake_done_) pump();
  };
  tls_.set_callbacks(std::move(cbs));
}

void Connection::on_tls_established() {
  if (!is_server_) {
    // 24-byte connection preface precedes all frames (§3.5).
    tls_.write(client_preface());
  }
  send_initial_settings();
  handshake_done_ = true;
  on_ready();
}

void Connection::send_initial_settings() {
  const SettingsEntry entries[] = {
      {SettingId::kHeaderTableSize, 4096},
      {SettingId::kEnablePush, cfg_.enable_push ? 1u : 0u},
      {SettingId::kMaxConcurrentStreams, cfg_.max_concurrent_streams},
      {SettingId::kInitialWindowSize, cfg_.initial_window_size},
      {SettingId::kMaxFrameSize, cfg_.max_frame_size},
  };
  Frame f;
  f.type = FrameType::kSettings;
  f.payload = encode_settings(entries);
  write_frame(std::move(f));
  decoder_.set_max_frame_size(cfg_.max_frame_size);

  if (cfg_.connection_window_bonus > 0) {
    Frame wu;
    wu.type = FrameType::kWindowUpdate;
    wu.stream_id = 0;
    wu.payload = encode_window_update(cfg_.connection_window_bonus);
    write_frame(std::move(wu));
    conn_recv_window_.replenish(cfg_.connection_window_bonus);
  }
}

void Connection::write_frame(Frame&& f) {
  if (dead_) return;
  ++stats_.frames_sent;
  metrics_.frames_sent.inc();
  if (f.type == FrameType::kData) {
    ++stats_.data_frames_sent;
    stats_.data_bytes_sent += f.payload.size();
    metrics_.data_bytes_sent.add(f.payload.size());
  } else if (f.type == FrameType::kHeaders) {
    ++stats_.headers_frames_sent;
  }
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kH2)) {
    tr.instant(obs::Component::kH2, std::string("tx ") + to_string(f.type),
               loop_.now(), is_server_ ? obs::track::kServer : obs::track::kClient,
               f.stream_id,
               obs::TraceArgs()
                   .add("len", f.payload.size())
                   .add("flags", static_cast<std::uint64_t>(f.flags))
                   .take());
  }
  if (frame_tap_) frame_tap_(f, loop_.now());
  tls_.write(serialize_frame(f));
}

Stream& Connection::create_stream(std::uint32_t id) {
  auto s = std::make_unique<Stream>(id, peer_initial_window_,
                                    static_cast<std::int64_t>(cfg_.initial_window_size));
  Stream& ref = *s;
  streams_[id] = std::move(s);
  rr_order_.push_back(id);
  ++stats_.streams_opened;
  metrics_.streams_opened.inc();
  return ref;
}

void Connection::trace_stream_state(std::uint32_t stream_id, StreamState before) {
  auto& tr = obs::tracer();
  if (!tr.enabled(obs::Component::kH2)) return;
  const Stream* s = find_stream(stream_id);
  const StreamState after = s ? s->state() : StreamState::kClosed;
  if (after == before) return;
  tr.instant(obs::Component::kH2, std::string("stream:") + to_string(after),
             loop_.now(), is_server_ ? obs::track::kServer : obs::track::kClient,
             stream_id, obs::TraceArgs().add("from", to_string(before)).take());
}

Stream* Connection::find_stream(std::uint32_t id) {
  // Frame processing hits the same stream many times in a row (every DATA
  // chunk, window update, and tap consults it), so a one-entry cache turns
  // most lookups into a compare. Invalidated on erase.
  if (id == last_stream_id_ && last_stream_ != nullptr) return last_stream_;
  auto it = streams_.find(id);
  if (it == streams_.end()) return nullptr;
  last_stream_id_ = id;
  last_stream_ = it->second.get();
  return last_stream_;
}

void Connection::destroy_stream_if_closed(std::uint32_t id) {
  Stream* s = find_stream(id);
  if (!s || !s->closed()) return;
  rr_order_.erase(std::remove(rr_order_.begin(), rr_order_.end(), id),
                  rr_order_.end());
  if (id == last_stream_id_) last_stream_ = nullptr;
  streams_.erase(id);
}

void Connection::connection_error(ErrorCode code, const std::string& msg) {
  if (dead_) return;
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kH2)) {
    tr.instant(obs::Component::kH2, "connection-error", loop_.now(),
               is_server_ ? obs::track::kServer : obs::track::kClient, 0,
               obs::TraceArgs()
                   .add("code", to_string(code))
                   .add("msg", msg)
                   .take());
  }
  send_goaway(code, msg);
  dead_ = true;
  on_dead(msg);
  tls_.close();
}

void Connection::send_goaway(ErrorCode code, std::string debug) {
  Frame f;
  f.type = FrameType::kGoaway;
  f.payload = encode_goaway({highest_remote_stream_, code, std::move(debug)});
  ++stats_.goaway_sent;
  write_frame(std::move(f));
}

void Connection::send_ping() {
  Frame f;
  f.type = FrameType::kPing;
  f.payload.assign(8, 0x42);
  ++stats_.pings_sent;
  write_frame(std::move(f));
}

void Connection::send_headers(std::uint32_t stream_id,
                              const hpack::HeaderList& headers, bool end_stream) {
  Stream* s = find_stream(stream_id);
  if (!s) s = &create_stream(stream_id);
  const StreamState before = s->state();
  if (!s->on_send_headers(end_stream)) {
    auto& tr = obs::tracer();
    if (tr.enabled(obs::Component::kH2)) {
      tr.instant(obs::Component::kH2, "send-headers-invalid", loop_.now(),
                 is_server_ ? obs::track::kServer : obs::track::kClient,
                 stream_id,
                 obs::TraceArgs().add("state", to_string(before)).take());
    }
    return;
  }
  const std::vector<std::uint8_t> block = hpack_encoder_.encode(headers);

  std::size_t pos = 0;
  bool first = true;
  do {
    const std::size_t n = std::min<std::size_t>(peer_max_frame_size_,
                                                block.size() - pos);
    Frame f;
    f.type = first ? FrameType::kHeaders : FrameType::kContinuation;
    f.stream_id = stream_id;
    f.payload.assign(block.begin() + static_cast<std::ptrdiff_t>(pos),
                     block.begin() + static_cast<std::ptrdiff_t>(pos + n));
    pos += n;
    if (first && end_stream) f.flags |= flags::kEndStream;
    if (pos == block.size()) f.flags |= flags::kEndHeaders;
    first = false;
    write_frame(std::move(f));
  } while (pos < block.size());
  trace_stream_state(stream_id, before);
  destroy_stream_if_closed(stream_id);
}

void Connection::send_rst_stream(std::uint32_t stream_id, ErrorCode code) {
  Stream* s = find_stream(stream_id);
  const StreamState before = s ? s->state() : StreamState::kClosed;
  if (s) {
    s->flush_queue();
    s->on_send_rst();
  }
  Frame f;
  f.type = FrameType::kRstStream;
  f.stream_id = stream_id;
  f.payload = encode_rst_stream(code);
  ++stats_.rst_sent;
  metrics_.rst_sent.inc();
  write_frame(std::move(f));
  trace_stream_state(stream_id, before);
  destroy_stream_if_closed(stream_id);
}

void Connection::enqueue_data(std::uint32_t stream_id,
                              std::span<const std::uint8_t> bytes, bool end_stream) {
  Stream* s = find_stream(stream_id);
  if (!s || !s->can_send_data()) return;  // stream was reset: drop (flushed)
  s->enqueue(bytes, end_stream);
  pump();
}

std::size_t Connection::streams_with_pending_data() const {
  std::size_t n = 0;
  for (const auto& [id, s] : streams_) {
    if (s->has_pending_output()) ++n;
  }
  return n;
}

std::size_t Connection::pending_data_bytes() const {
  std::size_t n = 0;
  for (const auto& [id, s] : streams_) n += s->queued_bytes();
  return n;
}

std::uint32_t Connection::pick_ready_stream() {
  auto ready = [this](std::uint32_t id) {
    Stream* s = find_stream(id);
    if (!s || !s->has_pending_output() || !s->can_send_data()) return false;
    if (s->queued_bytes() == 0) return true;  // bare END_STREAM
    return s->send_window().available() > 0 && conn_send_window_.available() > 0;
  };

  switch (cfg_.scheduler) {
    case SchedulerKind::kSequential: {
      std::uint32_t best = 0;
      for (const auto& [id, s] : streams_) {
        if (ready(id)) {
          best = id;
          break;  // map is id-ordered
        }
      }
      return best;
    }
    case SchedulerKind::kRandom: {
      std::vector<std::uint32_t> cand;
      for (std::uint32_t id : rr_order_) {
        if (ready(id)) cand.push_back(id);
      }
      if (cand.empty()) return 0;
      return cand[rng_.uniform(cand.size())];
    }
    case SchedulerKind::kWeighted: {
      // Weight-proportional random pick among ready streams.
      std::vector<std::uint32_t> cand;
      std::uint64_t total = 0;
      for (std::uint32_t id : rr_order_) {
        if (ready(id)) {
          cand.push_back(id);
          total += find_stream(id)->weight;
        }
      }
      if (cand.empty()) return 0;
      std::uint64_t pick = rng_.uniform(total);
      for (std::uint32_t id : cand) {
        const std::uint64_t w = find_stream(id)->weight;
        if (pick < w) return id;
        pick -= w;
      }
      return cand.back();
    }
    case SchedulerKind::kRoundRobin: {
      if (rr_order_.empty()) return 0;
      for (std::size_t i = 0; i < rr_order_.size(); ++i) {
        const std::uint32_t id = rr_order_.front();
        rr_order_.erase(rr_order_.begin());
        rr_order_.push_back(id);  // rotate regardless, so quanta alternate
        if (ready(id)) return id;
      }
      return 0;
    }
  }
  return 0;
}

void Connection::pump() {
  if (dead_ || !handshake_done_) return;
  obs::ProfileScope prof(obs::Component::kH2);
  for (;;) {
    // Socket backpressure: stop queueing into TCP beyond the watermark.
    const std::size_t tcp_buffered = tls_.connection().bytes_in_flight() +
                                     tls_.connection().unsent_bytes();
    if (tcp_buffered >= cfg_.tcp_send_watermark) break;

    const std::uint32_t id = pick_ready_stream();
    if (id == 0) {
      // Data is waiting but no stream may send: a flow-control stall (the
      // send windows are exhausted until the peer's WINDOW_UPDATE arrives).
      if (streams_with_pending_data() > 0) {
        metrics_.flow_stalls.inc();
        auto& tr = obs::tracer();
        if (tr.enabled(obs::Component::kH2)) {
          tr.instant(obs::Component::kH2, "flow-stall", loop_.now(),
                     is_server_ ? obs::track::kServer : obs::track::kClient, 0,
                     obs::TraceArgs()
                         .add("pending_bytes", pending_data_bytes())
                         .add("conn_window",
                              static_cast<std::int64_t>(conn_send_window_.available()))
                         .take());
        }
      }
      break;
    }
    Stream& s = *find_stream(id);

    std::size_t n = std::min({s.queued_bytes(), cfg_.data_chunk_size,
                              static_cast<std::size_t>(peer_max_frame_size_)});
    if (n > 0) {
      n = std::min(n, static_cast<std::size_t>(
                          std::min(s.send_window().available(),
                                   conn_send_window_.available())));
    }
    const std::vector<std::uint8_t> chunk = s.dequeue(n);
    const bool end = s.queued_bytes() == 0 && s.end_stream_queued();

    Frame f;
    f.type = FrameType::kData;
    f.stream_id = id;
    f.payload = chunk;
    if (end) f.flags |= flags::kEndStream;

    s.send_window().consume(static_cast<std::int64_t>(n));
    conn_send_window_.consume(static_cast<std::int64_t>(n));
    write_frame(std::move(f));

    if (end) {
      const StreamState before = s.state();
      s.flush_queue();
      s.on_send_data_end();
      trace_stream_state(id, before);
      destroy_stream_if_closed(id);
    }
  }
}

void Connection::on_plaintext(std::span<const std::uint8_t> bytes) {
  obs::ProfileScope prof(obs::Component::kH2);
  if (is_server_ && !preface_received_) {
    preface_buffer_.insert(preface_buffer_.end(), bytes.begin(), bytes.end());
    if (preface_buffer_.size() < 24) return;
    const auto expected = client_preface();
    if (!std::equal(expected.begin(), expected.end(), preface_buffer_.begin())) {
      connection_error(ErrorCode::kProtocolError, "bad connection preface");
      return;
    }
    preface_received_ = true;
    const std::vector<std::uint8_t> rest(preface_buffer_.begin() + 24,
                                         preface_buffer_.end());
    preface_buffer_.clear();
    decoder_.feed(rest);
  } else {
    decoder_.feed(bytes);
  }

  while (auto f = decoder_.next()) {
    ++stats_.frames_received;
    metrics_.frames_received.inc();
    handle_frame(std::move(*f));
    if (dead_) return;
  }
  if (decoder_.error()) {
    connection_error(ErrorCode::kFrameSizeError, "oversized frame");
  }
}

void Connection::handle_frame(Frame&& f) {
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kH2)) {
    tr.instant(obs::Component::kH2, std::string("rx ") + to_string(f.type),
               loop_.now(), is_server_ ? obs::track::kServer : obs::track::kClient,
               f.stream_id,
               obs::TraceArgs()
                   .add("len", f.payload.size())
                   .add("flags", static_cast<std::uint64_t>(f.flags))
                   .take());
  }

  if (assembling_headers_ && f.type != FrameType::kContinuation) {
    connection_error(ErrorCode::kProtocolError,
                     "expected CONTINUATION during header block");
    return;
  }

  switch (f.type) {
    case FrameType::kData: handle_data(f); return;
    case FrameType::kHeaders: handle_headers(std::move(f)); return;
    case FrameType::kPriority: handle_priority(f); return;
    case FrameType::kRstStream: handle_rst(f); return;
    case FrameType::kSettings: handle_settings(f); return;
    case FrameType::kPushPromise: handle_push_promise(std::move(f)); return;
    case FrameType::kPing: handle_ping(f); return;
    case FrameType::kGoaway: handle_goaway(f); return;
    case FrameType::kWindowUpdate: handle_window_update(f); return;
    case FrameType::kContinuation: handle_continuation(std::move(f)); return;
  }
  // Unknown frame types are ignored (§4.1).
}

void Connection::handle_data(const Frame& f) {
  if (f.stream_id == 0) {
    connection_error(ErrorCode::kProtocolError, "DATA on stream 0");
    return;
  }
  const auto len = static_cast<std::int64_t>(f.payload.size());
  if (!conn_recv_window_.can_send(len)) {
    connection_error(ErrorCode::kFlowControlError, "connection window exceeded");
    return;
  }
  conn_recv_window_.consume(len);

  Stream* s = find_stream(f.stream_id);
  const bool end = f.has_flag(flags::kEndStream);
  if (s && s->can_recv_data()) {
    const StreamState before = s->state();
    s->recv_window().consume(len);
    s->on_recv_data(end);
    stats_.data_bytes_received += f.payload.size();
    trace_stream_state(f.stream_id, before);
    on_remote_data(f.stream_id, std::span(f.payload), end);
    replenish_recv_windows(f.stream_id, f.payload.size());
    destroy_stream_if_closed(f.stream_id);
  } else {
    // Data for a reset/closed stream still occupies the connection window;
    // credit it back and drop the bytes (§6.9: flow control is hop-by-hop
    // and always accounted).
    replenish_recv_windows(0, f.payload.size());
  }
}

void Connection::replenish_recv_windows(std::uint32_t stream_id,
                                        std::size_t consumed) {
  // Window updates are batched at half-window granularity, like real
  // browsers: a chatty per-frame WINDOW_UPDATE stream would hand the
  // adversary's spacing policy a constant supply of client payload packets
  // (and their dup-ACKs) to play with.
  conn_recv_consumed_ += static_cast<std::int64_t>(consumed);
  const auto conn_threshold = static_cast<std::int64_t>(cfg_.window_update_batch);
  if (conn_recv_consumed_ >= conn_threshold) {
    conn_recv_window_.replenish(conn_recv_consumed_);
    Frame wu;
    wu.type = FrameType::kWindowUpdate;
    wu.stream_id = 0;
    wu.payload = encode_window_update(static_cast<std::uint32_t>(conn_recv_consumed_));
    conn_recv_consumed_ = 0;
    write_frame(std::move(wu));
  }

  if (stream_id == 0) return;
  Stream* s = find_stream(stream_id);
  if (!s || s->closed()) return;
  s->note_consumed(consumed);
  if (s->consumed_unacked() * 2 >= cfg_.initial_window_size) {
    const auto credit = static_cast<std::uint32_t>(s->consumed_unacked());
    s->recv_window().replenish(credit);
    s->clear_consumed();
    Frame swu;
    swu.type = FrameType::kWindowUpdate;
    swu.stream_id = stream_id;
    swu.payload = encode_window_update(credit);
    write_frame(std::move(swu));
  }
}

void Connection::handle_headers(Frame&& f) {
  if (f.stream_id == 0) {
    connection_error(ErrorCode::kProtocolError, "HEADERS on stream 0");
    return;
  }
  std::span<const std::uint8_t> block(f.payload);
  // Strip optional priority fields (PRIORITY flag).
  if (f.has_flag(flags::kPriority)) {
    if (block.size() < 5) {
      connection_error(ErrorCode::kFrameSizeError, "short HEADERS priority");
      return;
    }
    block = block.subspan(5);
  }
  header_block_.assign(block.begin(), block.end());
  assembling_stream_ = f.stream_id;
  assembling_end_stream_ = f.has_flag(flags::kEndStream);
  assembling_is_push_ = false;

  if (f.has_flag(flags::kEndHeaders)) {
    finish_header_block(assembling_stream_, assembling_end_stream_, false, 0);
  } else {
    assembling_headers_ = true;
  }
}

void Connection::handle_continuation(Frame&& f) {
  if (!assembling_headers_ || f.stream_id != assembling_stream_) {
    connection_error(ErrorCode::kProtocolError, "unexpected CONTINUATION");
    return;
  }
  header_block_.insert(header_block_.end(), f.payload.begin(), f.payload.end());
  if (f.has_flag(flags::kEndHeaders)) {
    assembling_headers_ = false;
    finish_header_block(assembling_stream_, assembling_end_stream_,
                        assembling_is_push_, assembling_promised_);
  }
}

void Connection::finish_header_block(std::uint32_t stream_id, bool end_stream,
                                     bool is_push_promise,
                                     std::uint32_t promised_id) {
  auto headers = hpack_decoder_.decode(header_block_);
  header_block_.clear();
  if (!headers) {
    connection_error(ErrorCode::kCompressionError, "hpack decode failed");
    return;
  }

  if (is_push_promise) {
    Stream& promised = create_stream(promised_id);
    promised.on_recv_push_promise();
    on_remote_push_promise(stream_id, promised_id, *headers);
    return;
  }

  Stream* s = find_stream(stream_id);
  if (!s) {
    const bool remote_origin = is_server_ ? (stream_id % 2 == 1)
                                          : (stream_id % 2 == 0);
    if (!remote_origin || stream_id <= highest_remote_stream_) {
      // Late HEADERS on an already-closed stream: ignore (lenient).
      return;
    }
    if (streams_.size() >= cfg_.max_concurrent_streams) {
      send_rst_stream(stream_id, ErrorCode::kRefusedStream);
      return;
    }
    highest_remote_stream_ = stream_id;
    s = &create_stream(stream_id);
  }
  const StreamState before = s->state();
  if (!s->on_recv_headers(end_stream)) {
    connection_error(ErrorCode::kProtocolError, "HEADERS in invalid state");
    return;
  }
  trace_stream_state(stream_id, before);
  on_remote_headers(stream_id, *headers, end_stream);
  destroy_stream_if_closed(stream_id);
}

void Connection::handle_settings(const Frame& f) {
  if (f.stream_id != 0) {
    connection_error(ErrorCode::kProtocolError, "SETTINGS on non-zero stream");
    return;
  }
  if (f.has_flag(flags::kAck)) {
    if (!f.payload.empty()) {  // RFC 7540 §6.5
      connection_error(ErrorCode::kFrameSizeError, "SETTINGS ACK with payload");
    }
    return;
  }
  auto entries = parse_settings(f.payload);
  if (!entries) {
    connection_error(ErrorCode::kFrameSizeError, "bad SETTINGS payload");
    return;
  }
  for (const SettingsEntry& e : *entries) {
    switch (e.id) {
      case SettingId::kHeaderTableSize:
        // Peer's decode table limit constrains our encoder.
        break;
      case SettingId::kEnablePush:
        if (e.value > 1) {  // RFC 7540 §6.5.2
          connection_error(ErrorCode::kProtocolError, "bad ENABLE_PUSH");
          return;
        }
        peer_push_enabled_ = e.value != 0;
        break;
      case SettingId::kMaxConcurrentStreams:
        peer_max_concurrent_ = e.value;
        break;
      case SettingId::kInitialWindowSize: {
        if (e.value > kMaxWindow) {
          connection_error(ErrorCode::kFlowControlError, "bad initial window");
          return;
        }
        const std::int64_t delta =
            static_cast<std::int64_t>(e.value) - peer_initial_window_;
        peer_initial_window_ = e.value;
        for (auto& [id, s] : streams_) s->send_window().adjust(delta);
        break;
      }
      case SettingId::kMaxFrameSize:
        if (e.value < 16384 || e.value > kMaxAllowedFrameSize) {
          connection_error(ErrorCode::kProtocolError, "bad max frame size");
          return;
        }
        peer_max_frame_size_ = e.value;
        break;
      case SettingId::kMaxHeaderListSize:
        break;
    }
  }
  Frame ack;
  ack.type = FrameType::kSettings;
  ack.flags = flags::kAck;
  write_frame(std::move(ack));
  pump();
}

void Connection::handle_rst(const Frame& f) {
  if (f.stream_id == 0) {
    connection_error(ErrorCode::kProtocolError, "RST_STREAM on stream 0");
    return;
  }
  auto code = parse_rst_stream(f.payload);
  if (!code) {  // RFC 7540 §6.4
    connection_error(ErrorCode::kFrameSizeError, "bad RST_STREAM length");
    return;
  }
  ++stats_.rst_received;
  metrics_.rst_received.inc();
  Stream* s = find_stream(f.stream_id);
  if (s) {
    // The paper's key server-side mechanic (Fig. 6): the reset flushes all
    // of this stream's queued object segments from the server queue.
    const StreamState before = s->state();
    const std::size_t flushed = s->queued_bytes();
    s->flush_queue();
    s->on_recv_rst();
    trace_stream_state(f.stream_id, before);
    auto& tr = obs::tracer();
    if (flushed > 0 && tr.enabled(obs::Component::kH2)) {
      // The flush itself is the paper's Figure-6 signal: make it visible.
      tr.instant(obs::Component::kH2, "rst-flush", loop_.now(),
                 is_server_ ? obs::track::kServer : obs::track::kClient,
                 f.stream_id,
                 obs::TraceArgs().add("flushed_bytes", flushed).take());
    }
  }
  on_remote_rst(f.stream_id, *code);
  destroy_stream_if_closed(f.stream_id);
  pump();  // capacity freed: other streams may proceed
}

void Connection::handle_window_update(const Frame& f) {
  auto inc = parse_window_update(f.payload);
  if (!inc) {
    connection_error(ErrorCode::kFrameSizeError, "bad WINDOW_UPDATE");
    return;
  }
  if (*inc == 0) {
    connection_error(ErrorCode::kProtocolError, "zero WINDOW_UPDATE");
    return;
  }
  if (f.stream_id == 0) {
    if (!conn_send_window_.replenish(*inc)) {
      connection_error(ErrorCode::kFlowControlError, "connection window overflow");
      return;
    }
  } else if (Stream* s = find_stream(f.stream_id)) {
    if (!s->send_window().replenish(*inc)) {
      send_rst_stream(f.stream_id, ErrorCode::kFlowControlError);
      return;
    }
  }
  pump();
}

void Connection::handle_ping(const Frame& f) {
  if (f.stream_id != 0) {  // RFC 7540 §6.7
    connection_error(ErrorCode::kProtocolError, "PING on non-zero stream");
    return;
  }
  if (f.payload.size() != 8) {
    connection_error(ErrorCode::kFrameSizeError, "bad PING length");
    return;
  }
  if (f.has_flag(flags::kAck)) return;
  Frame ack;
  ack.type = FrameType::kPing;
  ack.flags = flags::kAck;
  ack.payload = f.payload;
  write_frame(std::move(ack));
}

void Connection::handle_goaway(const Frame& f) {
  if (f.stream_id != 0) {  // RFC 7540 §6.8
    connection_error(ErrorCode::kProtocolError, "GOAWAY on non-zero stream");
    return;
  }
  auto g = parse_goaway(f.payload);
  if (!g) {
    connection_error(ErrorCode::kFrameSizeError, "bad GOAWAY");
    return;
  }
  goaway_last_stream_ = g->last_stream_id;
  on_remote_goaway(*g);
}

void Connection::handle_priority(const Frame& f) {
  auto p = parse_priority(f.payload);
  if (!p || f.stream_id == 0) return;  // lenient
  if (Stream* s = find_stream(f.stream_id)) s->weight = p->weight;
}

void Connection::handle_push_promise(Frame&& f) {
  if (is_server_) {
    connection_error(ErrorCode::kProtocolError, "PUSH_PROMISE from client");
    return;
  }
  if (!cfg_.enable_push) {
    connection_error(ErrorCode::kProtocolError, "push disabled");
    return;
  }
  auto p = parse_push_promise(f.payload);
  if (!p) {
    connection_error(ErrorCode::kFrameSizeError, "bad PUSH_PROMISE");
    return;
  }
  header_block_ = std::move(p->block);
  assembling_stream_ = f.stream_id;
  assembling_is_push_ = true;
  assembling_promised_ = p->promised_id;
  assembling_end_stream_ = false;
  if (f.has_flag(flags::kEndHeaders)) {
    finish_header_block(f.stream_id, false, true, p->promised_id);
  } else {
    assembling_headers_ = true;
  }
}

}  // namespace h2sim::h2
