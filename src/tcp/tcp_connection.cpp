#include "tcp/tcp_connection.hpp"

#include <algorithm>
#include <cassert>

#include "obs/context.hpp"
#include "obs/trace.hpp"

namespace h2sim::tcp {

using net::Packet;
using net::tcpflag::kAck;
using net::tcpflag::kFin;
using net::tcpflag::kRst;
using net::tcpflag::kSyn;

std::uint32_t trace_pid(net::NodeId node) {
  return node == 1 ? obs::track::kClient : obs::track::kServer;
}

const char* to_string(TcpConnection::State s) {
  switch (s) {
    case TcpConnection::State::kClosed: return "CLOSED";
    case TcpConnection::State::kSynSent: return "SYN_SENT";
    case TcpConnection::State::kSynReceived: return "SYN_RCVD";
    case TcpConnection::State::kEstablished: return "ESTABLISHED";
    case TcpConnection::State::kFinWait1: return "FIN_WAIT_1";
    case TcpConnection::State::kFinWait2: return "FIN_WAIT_2";
    case TcpConnection::State::kCloseWait: return "CLOSE_WAIT";
    case TcpConnection::State::kLastAck: return "LAST_ACK";
    case TcpConnection::State::kClosing: return "CLOSING";
    case TcpConnection::State::kTimeWait: return "TIME_WAIT";
    case TcpConnection::State::kAborted: return "ABORTED";
  }
  return "?";
}

TcpConnection::TcpConnection(sim::EventLoop& loop, const TcpConfig& cfg,
                             net::NodeId local_node, net::Port local_port,
                             net::NodeId remote_node, net::Port remote_port,
                             SendFn send_fn, std::uint32_t initial_seq)
    : loop_(loop),
      cfg_(cfg),
      local_node_(local_node),
      local_port_(local_port),
      remote_node_(remote_node),
      remote_port_(remote_port),
      send_fn_(std::move(send_fn)),
      iss_(initial_seq),
      snd_una_(initial_seq),
      snd_nxt_(initial_seq),
      buf_seq_(initial_seq + 1),
      cwnd_(kInitialCwndSegments * net::kMssBytes),
      ssthresh_(cfg.recv_window),
      rto_(kInitialRto) {
  auto& reg = obs::metrics();
  metrics_.segments_sent = reg.counter("tcp.segments_sent");
  metrics_.segments_received = reg.counter("tcp.segments_received");
  metrics_.retransmits_fast = reg.counter("tcp.retransmits_fast");
  metrics_.retransmits_rto = reg.counter("tcp.retransmits_rto");
  metrics_.rto_expirations = reg.counter("tcp.rto_expirations");
  metrics_.dup_acks_received = reg.counter("tcp.dup_acks_received");
  metrics_.out_of_order_segments = reg.counter("tcp.out_of_order_segments");
  metrics_.connections_aborted = reg.counter("tcp.connections_aborted");
  metrics_.cwnd_bytes =
      reg.histogram("tcp.cwnd_bytes", obs::exponential_buckets(1460, 2.0, 14));
}

TcpConnection::~TcpConnection() { cancel_rto(); }

void TcpConnection::become(State s) {
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.instant(obs::Component::kTcp, std::string("tcp:") + to_string(s),
               loop_.now(), trace_pid(local_node_), local_port_,
               obs::TraceArgs().add("from", to_string(state_)).take());
  }
  if (s == State::kEstablished) last_forward_progress_ = loop_.now();
  state_ = s;
}

void TcpConnection::trace_cwnd() {
  metrics_.cwnd_bytes.observe(static_cast<double>(cwnd_));
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.counter(obs::Component::kTcp, "cwnd", loop_.now(), trace_pid(local_node_),
               local_port_, static_cast<double>(cwnd_));
  }
}

void TcpConnection::emit(std::uint8_t flags, std::uint32_t seq,
                         std::size_t payload_len, bool retransmission) {
  Packet p;
  // Ids come from the trial's own event loop: unique within the simulated
  // world, deterministic, and unshared with concurrently running trials.
  p.id = loop_.allocate_id();
  p.src = local_node_;
  p.dst = remote_node_;
  p.tcp.src_port = local_port_;
  p.tcp.dst_port = remote_port_;
  p.tcp.seq = seq;
  p.tcp.ack = (flags & kAck) ? rcv_nxt_ : 0;
  p.tcp.flags = flags;
  p.tcp.wnd = static_cast<std::uint32_t>(cfg_.recv_window);
  p.sent_at = loop_.now();
  p.is_retransmission = retransmission;
  if (payload_len > 0) {
    assert(seq - buf_seq_ + payload_len <= send_buf_.size());
    const auto bytes = send_buf_.bytes().subspan(seq - buf_seq_, payload_len);
    // Recycled buffer, sized to a full segment on first use: the assign
    // reuses pooled capacity whatever segment the buffer carried before, so
    // steady-state segment emission performs no heap allocation.
    p.payload = loop_.payload_pool().acquire();
    p.payload.reserve(net::kMssBytes);
    p.payload.assign(bytes.begin(), bytes.end());
  }
  metrics_.segments_sent.inc();
  if (flags & kAck) last_ack_sent_ = rcv_nxt_;
  send_fn_(std::move(p));
}

void TcpConnection::send_ack() { emit(kAck, snd_nxt_, 0, false); }

void TcpConnection::connect() {
  assert(state_ == State::kClosed);
  become(State::kSynSent);
  snd_nxt_ = iss_ + 1;  // SYN consumes one sequence number
  emit(kSyn, iss_, 0, false);
  arm_rto();
}

void TcpConnection::send(std::span<const std::uint8_t> data) {
  if (state_ == State::kAborted || fin_pending_ || fin_sent_) return;
  if (send_buf_.size() + data.size() > kSendBufferLimit) {
    auto& tr = obs::tracer();
    if (tr.enabled(obs::Component::kTcp)) {
      tr.instant(obs::Component::kTcp, "send-buffer-overflow", loop_.now(),
                 trace_pid(local_node_), local_port_,
                 obs::TraceArgs()
                     .add("bytes", static_cast<std::uint64_t>(data.size()))
                     .take());
    }
    return;
  }
  send_buf_.append(data);
  if (state_ == State::kEstablished || state_ == State::kCloseWait) try_send();
}

void TcpConnection::close() {
  if (state_ == State::kEstablished) {
    become(State::kFinWait1);
  } else if (state_ == State::kCloseWait) {
    become(State::kLastAck);
  } else {
    return;
  }
  fin_pending_ = true;
  try_send();
}

void TcpConnection::abort(std::string_view reason) {
  if (state_ == State::kAborted) return;
  metrics_.connections_aborted.inc();
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.instant(obs::Component::kTcp, "abort", loop_.now(),
               trace_pid(local_node_), local_port_,
               obs::TraceArgs().add("reason", reason).take());
  }
  emit(kRst | kAck, snd_nxt_, 0, false);
  cancel_rto();
  become(State::kAborted);
  if (cbs_.on_aborted) cbs_.on_aborted(reason);
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished && state_ != State::kCloseWait &&
      state_ != State::kFinWait1 && state_ != State::kLastAck) {
    return;
  }
  const std::uint32_t buf_end = buf_seq_ + static_cast<std::uint32_t>(send_buf_.size());
  const bool was_idle = snd_una_ == snd_nxt_;
  bool sent_any = false;
  for (;;) {
    const std::size_t flight = snd_nxt_ - snd_una_;
    const std::size_t wnd = std::min(cwnd_, static_cast<std::size_t>(peer_wnd_));
    if (flight >= wnd) break;
    const std::size_t usable = wnd - flight;
    if (!seq_lt(snd_nxt_, buf_end)) break;  // nothing unsent
    const std::size_t unsent = buf_end - snd_nxt_;
    const std::size_t len = std::min({net::kMssBytes, unsent, usable});
    if (len == 0) break;
    assert(tracked_segments() == 0 || tx_records_.back().key < tx_key(snd_nxt_));
    tx_records_.push_back(
        {tx_key(snd_nxt_), snd_nxt_ + static_cast<std::uint32_t>(len), loop_.now(), 1});
    emit(kAck, snd_nxt_, len, false);
    snd_nxt_ += static_cast<std::uint32_t>(len);
    sent_any = true;
  }
  maybe_send_fin();
  // The no-progress clock measures time stalled on in-flight data, not idle
  // time: restart it when transmission resumes after an idle period.
  if (was_idle && snd_una_ != snd_nxt_) last_forward_progress_ = loop_.now();
  if (sent_any || fin_sent_) arm_rto();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_) return;
  const std::uint32_t buf_end = buf_seq_ + static_cast<std::uint32_t>(send_buf_.size());
  if (seq_lt(snd_nxt_, buf_end)) return;  // data still unsent
  fin_seq_ = snd_nxt_;
  fin_sent_ = true;
  snd_nxt_ += 1;  // FIN consumes one sequence number
  emit(kFin | kAck, fin_seq_, 0, false);
  arm_rto();
}

void TcpConnection::retransmit_from(std::uint32_t seq, const char* why,
                                    bool rto_driven) {
  const std::uint32_t buf_end = buf_seq_ + static_cast<std::uint32_t>(send_buf_.size());
  if (fin_sent_ && seq == fin_seq_) {
    emit(kFin | kAck, fin_seq_, 0, true);
  } else if (seq_lt(seq, buf_end)) {
    const std::size_t avail = buf_end - seq;
    const std::size_t in_flight_past = snd_nxt_ - seq;
    const std::size_t len = std::min({net::kMssBytes, avail, in_flight_past});
    if (len == 0) return;
    const auto it = tx_lower_bound(tx_key(seq));
    if (it != tx_records_.end() && it->key == tx_key(seq)) {
      ++it->tx_count;  // Karn: no more RTT samples here
    } else {
      tx_records_.insert(
          it, {tx_key(seq), seq + static_cast<std::uint32_t>(len), loop_.now(), 2});
    }
    emit(kAck, seq, len, true);
  } else {
    return;
  }
  (rto_driven ? metrics_.retransmits_rto : metrics_.retransmits_fast).inc();
  auto& tr = obs::tracer();
  if (tr.enabled(obs::Component::kTcp)) {
    tr.instant(obs::Component::kTcp, "retransmit", loop_.now(),
               trace_pid(local_node_), local_port_,
               obs::TraceArgs().add("seq", seq).add("why", why).take());
  }
}

void TcpConnection::arm_rto() {
  // Rearm in place when possible: reschedule_after assigns the same fire time
  // and the same FIFO seq as cancel+schedule would, so traces are unchanged,
  // but the callback is kept instead of destroyed and rebuilt.
  if (!loop_.reschedule_after(rto_timer_, rto_)) {
    rto_timer_ = loop_.schedule_after(rto_, [this] { on_rto(); });
  }
}

void TcpConnection::cancel_rto() { rto_timer_.cancel(); }

void TcpConnection::on_rto() {
  if (state_ == State::kAborted || state_ == State::kTimeWait ||
      state_ == State::kClosed) {
    return;
  }
  metrics_.rto_expirations.inc();
  {
    auto& tr = obs::tracer();
    if (tr.enabled(obs::Component::kTcp)) {
      tr.instant(obs::Component::kTcp, "rto", loop_.now(),
                 trace_pid(local_node_), local_port_,
                 obs::TraceArgs().add("rto_ms", rto_.to_millis()).take());
    }
  }
  ++consecutive_rto_;
  if (consecutive_rto_ > kMaxRtoRetries) {
    abort("rto-retries-exceeded");
    return;
  }
  if (snd_una_ != snd_nxt_ &&
      loop_.now() - last_forward_progress_ > kStuckTimeout) {
    abort("no-forward-progress");
    return;
  }
  static_assert(kMinRto <= kRtoBackoffCap && kRtoBackoffCap <= kMaxRto);
  rto_ = std::min(rto_ * 2, kRtoBackoffCap);

  if (state_ == State::kSynSent) {
    emit(kSyn, iss_, 0, true);
  } else if (state_ == State::kSynReceived) {
    emit(kSyn | kAck, iss_, 0, true);
  } else if (snd_una_ != snd_nxt_) {
    // Loss signalled by timeout: back off to one segment.
    const std::size_t flight = snd_nxt_ - snd_una_;
    ssthresh_ = std::max(flight / 2, 2 * net::kMssBytes);
    cwnd_ = net::kMssBytes;
    trace_cwnd();
    in_fast_recovery_ = false;
    dupacks_ = 0;
    retransmit_from(snd_una_, "rto", true);
  }
  // Re-arm only while something is actually outstanding.
  if (snd_una_ != snd_nxt_ || state_ == State::kSynSent ||
      state_ == State::kSynReceived) {
    arm_rto();
  }
}

void TcpConnection::update_rtt(sim::Duration sample) {
  if (!have_rtt_sample_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_sample_ = true;
  } else {
    const auto err = sim::Duration::nanos(
        std::abs(srtt_.count_nanos() - sample.count_nanos()));
    rttvar_ = rttvar_ * 3 / 4 + err / 4;
    srtt_ = srtt_ * 7 / 8 + sample / 8;
  }
  sim::Duration rto = srtt_ + rttvar_ * 4;
  rto_ = std::clamp(rto, kMinRto, kMaxRto);
}

void TcpConnection::handle_segment(const net::Packet& p) {
  metrics_.segments_received.inc();
  if (state_ == State::kAborted || state_ == State::kClosed) {
    if (p.tcp.syn() && state_ == State::kClosed) {
      // Passive open.
      irs_ = p.tcp.seq;
      rcv_nxt_ = irs_ + 1;
      peer_wnd_ = p.tcp.wnd;
      become(State::kSynReceived);
      snd_nxt_ = iss_ + 1;
      emit(kSyn | kAck, iss_, 0, false);
      arm_rto();
    }
    return;
  }

  if (p.tcp.rst()) {
    cancel_rto();
    become(State::kAborted);
    if (cbs_.on_aborted) cbs_.on_aborted("rst-received");
    return;
  }

  peer_wnd_ = p.tcp.wnd;

  if (state_ == State::kSynSent) {
    if (p.tcp.syn() && p.tcp.ack_flag() && p.tcp.ack == iss_ + 1) {
      irs_ = p.tcp.seq;
      rcv_nxt_ = irs_ + 1;
      snd_una_ = p.tcp.ack;
      consecutive_rto_ = 0;
      cancel_rto();
      rto_ = kInitialRto;
      become(State::kEstablished);
      send_ack();
      if (cbs_.on_connected) cbs_.on_connected();
      try_send();
    }
    return;
  }

  if (state_ == State::kSynReceived) {
    if (p.tcp.ack_flag() && p.tcp.ack == iss_ + 1) {
      snd_una_ = p.tcp.ack;
      consecutive_rto_ = 0;
      cancel_rto();
      rto_ = kInitialRto;
      become(State::kEstablished);
      if (cbs_.on_connected) cbs_.on_connected();
      // fall through: the ACK may carry data
    } else if (p.tcp.syn()) {
      emit(kSyn | kAck, iss_, 0, true);  // retransmitted SYN: re-answer
      return;
    } else {
      return;
    }
  }

  if (p.tcp.ack_flag()) handle_ack(p);
  if (state_ == State::kAborted) return;
  if (!p.payload.empty() || p.tcp.fin()) handle_payload(p);
}

void TcpConnection::handle_ack(const net::Packet& p) {
  const std::uint32_t ack = p.tcp.ack;
  if (seq_gt(ack, snd_nxt_)) return;  // acks data never sent; ignore

  if (seq_gt(ack, snd_una_)) {
    const std::size_t newly_acked = ack - snd_una_;
    on_new_ack(ack, newly_acked);
    return;
  }

  // ack == snd_una_ (or older): potential duplicate ACK.
  if (ack == snd_una_ && p.payload.empty() && !p.tcp.fin() &&
      snd_una_ != snd_nxt_) {
    metrics_.dup_acks_received.inc();
    ++dupacks_;
    if (in_fast_recovery_) {
      cwnd_ += net::kMssBytes;  // inflate for the segment that left the network
      try_send();
    } else if (dupacks_ == kDupackThreshold) {
      enter_fast_retransmit();
    }
  }
}

void TcpConnection::on_new_ack(std::uint32_t ack, std::size_t newly_acked) {
  consecutive_rto_ = 0;
  last_forward_progress_ = loop_.now();

  // RTT sampling: only the segment at the left window edge, and only if it
  // was transmitted exactly once (Karn). Sampling later segments of a
  // cumulative ACK would count queueing time behind retransmission holes as
  // path RTT and blow up the RTO.
  const auto edge = tx_lower_bound(tx_key(snd_una_));
  if (edge != tx_records_.end() && edge->key == tx_key(snd_una_) &&
      seq_le(edge->end_seq, ack) && edge->tx_count == 1) {
    update_rtt(loop_.now() - edge->first_tx);
  }
  retire_tx(ack);

  snd_una_ = ack;
  assert(seq_le(snd_una_, snd_nxt_));

  // Release acked stream bytes (the FIN consumes a non-stream sequence slot).
  std::uint32_t data_end = ack;
  if (fin_sent_ && seq_gt(ack, fin_seq_)) data_end = fin_seq_;
  if (seq_gt(data_end, buf_seq_)) {
    std::size_t n = data_end - buf_seq_;
    n = std::min(n, send_buf_.size());
    send_buf_.consume(n);
    buf_seq_ += static_cast<std::uint32_t>(n);
  }

  if (in_fast_recovery_) {
    if (seq_ge(ack, recover_)) {
      cwnd_ = ssthresh_;  // full recovery
      in_fast_recovery_ = false;
      dupacks_ = 0;
    } else {
      // NewReno partial ACK: retransmit the next hole, deflate the window.
      retransmit_from(snd_una_, "partial-ack", false);
      cwnd_ = cwnd_ > newly_acked ? cwnd_ - newly_acked + net::kMssBytes : net::kMssBytes;
    }
  } else {
    dupacks_ = 0;
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min(newly_acked, net::kMssBytes);  // slow start
    } else {
      cwnd_ += std::max<std::size_t>(1, net::kMssBytes * net::kMssBytes / cwnd_);  // CA
    }
  }
  trace_cwnd();

  // Our FIN acknowledged?
  if (fin_sent_ && seq_gt(snd_una_, fin_seq_)) {
    if (state_ == State::kFinWait1) become(State::kFinWait2);
    else if (state_ == State::kClosing) become(State::kTimeWait);
    else if (state_ == State::kLastAck) become(State::kClosed);
  }

  // New data acknowledged: exponential backoff ends (Linux resets
  // icsk_backoff here); the timer is re-armed from the smoothed estimate.
  if (have_rtt_sample_) {
    rto_ = std::clamp(srtt_ + rttvar_ * 4, kMinRto, kMaxRto);
  } else {
    rto_ = kInitialRto;
  }
  if (snd_una_ == snd_nxt_) {
    cancel_rto();
  } else {
    arm_rto();
  }
  try_send();
  if (cbs_.on_writable) cbs_.on_writable();
}

std::vector<TcpConnection::TxRecord>::iterator TcpConnection::tx_lower_bound(
    std::uint32_t key) {
  return std::lower_bound(
      tx_records_.begin() + static_cast<std::ptrdiff_t>(tx_head_), tx_records_.end(),
      key, [](const TxRecord& r, std::uint32_t k) { return r.key < k; });
}

void TcpConnection::retire_tx(std::uint32_t ack) {
  // Only records starting below the ACK can be covered; a partially acked
  // one survives until a later ACK passes its end. Survivors keep their order
  // and close up against the first record the ACK cannot reach.
  const auto first = tx_records_.begin() + static_cast<std::ptrdiff_t>(tx_head_);
  auto stop = first;
  while (stop != tx_records_.end() && stop->key < tx_key(ack)) ++stop;
  auto kept = stop;
  for (auto it = stop; it != first;) {
    --it;
    if (seq_gt(it->end_seq, ack)) *--kept = *it;
  }
  tx_head_ = static_cast<std::size_t>(kept - tx_records_.begin());
  // Reclaim the retired prefix once it dominates the storage.
  if (tx_head_ == tx_records_.size()) {
    tx_records_.clear();
    tx_head_ = 0;
  } else if (tx_head_ >= 64 && 2 * tx_head_ >= tx_records_.size()) {
    tx_records_.erase(tx_records_.begin(), kept);
    tx_head_ = 0;
  }
  // No live record is covered, and live keys strictly increase.
  [[maybe_unused]] const auto live =
      tx_records_.begin() + static_cast<std::ptrdiff_t>(tx_head_);
  assert(std::none_of(live, tx_records_.end(),
                      [ack](const TxRecord& r) { return seq_le(r.end_seq, ack); }));
  assert(std::adjacent_find(live, tx_records_.end(),
                            [](const TxRecord& a, const TxRecord& b) {
                              return a.key >= b.key;
                            }) == tx_records_.end());
}

void TcpConnection::enter_fast_retransmit() {
  const std::size_t flight = snd_nxt_ - snd_una_;
  ssthresh_ = std::max(flight / 2, 2 * net::kMssBytes);
  recover_ = snd_nxt_;
  in_fast_recovery_ = true;
  retransmit_from(snd_una_, "fast-retransmit", false);
  cwnd_ = ssthresh_ + 3 * net::kMssBytes;
  trace_cwnd();
}

void TcpConnection::handle_payload(const net::Packet& p) {
  const std::uint32_t rcv_before = rcv_nxt_;
  const bool had_fin = p.tcp.fin();
  std::uint32_t seq = p.tcp.seq;
  if (had_fin) {
    const std::uint32_t fin_at = seq + static_cast<std::uint32_t>(p.payload.size());
    if (!remote_fin_seq_) remote_fin_seq_ = fin_at;
  }

  if (!p.payload.empty()) {
    // Assemble the full newly-contiguous run (this segment's fresh bytes plus
    // any buffered out-of-order segments it unblocks) and advance rcv_nxt_
    // over all of it BEFORE delivering to the application: packets the
    // application emits during delivery must carry the final cumulative
    // acknowledgment, exactly like a real stack that processes the segment
    // batch before the app runs. A segment that closes no hole is delivered
    // straight from the packet; only a run that drains buffered segments is
    // joined in a pooled buffer.
    std::span<const std::uint8_t> run;
    std::vector<std::uint8_t> joined;
    const auto fate = ooo_.accept(
        rcv_nxt_, seq, p.payload,
        [this, &run, &joined](std::span<const std::uint8_t> bytes) {
          if (run.empty()) {
            run = bytes;  // the first span lies in p.payload, which outlives it
            return;
          }
          if (joined.empty()) {
            joined = loop_.payload_pool().acquire();
            joined.assign(run.begin(), run.end());
          }
          joined.insert(joined.end(), bytes.begin(), bytes.end());
        });
    if (fate == ReorderQueue::Fate::kInOrder) {
      if (!joined.empty()) run = joined;
      if (cbs_.on_data) cbs_.on_data(run);
      loop_.payload_pool().release(std::move(joined));  // no-op when unused
    } else if (fate == ReorderQueue::Fate::kBuffered) {
      metrics_.out_of_order_segments.inc();
    }
  }

  // Process FIN once all preceding data has been consumed.
  if (remote_fin_seq_ && rcv_nxt_ == *remote_fin_seq_) {
    rcv_nxt_ += 1;
    remote_fin_seq_.reset();
    if (state_ == State::kEstablished) become(State::kCloseWait);
    else if (state_ == State::kFinWait1) become(State::kClosing);
    else if (state_ == State::kFinWait2) become(State::kTimeWait);
    if (cbs_.on_remote_close) cbs_.on_remote_close();
  }

  // Acknowledge. Out-of-order or duplicate segments must generate duplicate
  // ACKs (they drive the peer's fast retransmit). For in-order data, skip
  // the pure ACK when delivery already emitted a packet (e.g. an HTTP/2
  // WINDOW_UPDATE) carrying the same acknowledgment — a redundant pure ACK
  // here would look like a duplicate ACK to the peer and trigger spurious
  // fast retransmits.
  const bool advanced = rcv_nxt_ != rcv_before;
  if (!advanced || last_ack_sent_ != rcv_nxt_) send_ack();
}

}  // namespace h2sim::tcp
