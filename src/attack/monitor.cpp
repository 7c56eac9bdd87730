#include "attack/monitor.hpp"

#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "tcp/tcp_types.hpp"

namespace h2sim::attack {

void TrafficMonitor::observe(const net::Packet& p, net::Direction dir,
                             sim::TimePoint now) {
  obs::ProfileScope prof(obs::Component::kAttack);
  // Connection key: the client's (address, ephemeral port) pair identifies
  // the flow in both directions — port alone is ambiguous on a shared
  // gateway, where independent client stacks draw from colliding ephemeral
  // ranges.
  const std::uint64_t key =
      dir == net::Direction::kClientToServer
          ? (static_cast<std::uint64_t>(p.src) << 16) | p.tcp.src_port
          : (static_cast<std::uint64_t>(p.dst) << 16) | p.tcp.dst_port;
  StreamState& st = dir == net::Direction::kClientToServer ? c2s_[key] : s2c_[key];

  if (p.tcp.syn()) {
    st.synced = true;
    st.next_seq = p.tcp.seq + 1;
    st.ooo.clear();
    return;
  }
  if (!st.synced || p.payload.empty()) return;

  // Retransmission classification: payload starting at or below the stream
  // head was already seen.
  if (dir == net::Direction::kClientToServer &&
      tcp::seq_lt(p.tcp.seq, st.next_seq)) {
    last_c2s_retrans_packet_id_ = p.id;
  }

  // Live request classification for the controller: does this packet begin
  // a fresh application-data record big enough to carry a GET? Only
  // decidable when the packet lands exactly at the reassembled stream head.
  if (dir == net::Direction::kClientToServer && p.tcp.seq == st.next_seq &&
      st.parser.pending_bytes() == 0 && p.payload.size() >= 5 &&
      p.payload[0] == static_cast<std::uint8_t>(tls::ContentType::kApplicationData)) {
    const std::size_t rec_len =
        static_cast<std::size_t>(p.payload[3]) << 8 | p.payload[4];
    if (rec_len >= kGetMinRecordBody) last_request_packet_id_ = p.id;
  }

  // Reassemble, deduplicating retransmissions; parse what became contiguous.
  const auto fate = st.ooo.accept(
      st.next_seq, p.tcp.seq, p.payload,
      [&st](std::span<const std::uint8_t> bytes) { st.parser.feed(bytes); });
  if (fate == tcp::ReorderQueue::Fate::kInOrder) drain_records(st, dir, now);
}

void TrafficMonitor::drain_records(StreamState& st, net::Direction dir,
                                   sim::TimePoint now) {
  while (const auto rec = st.parser.next()) {
    const tls::RecordHeader& header = rec->header;
    analysis::RecordObs obs;
    obs.time = now;
    obs.dir = dir;
    obs.type = header.type;
    obs.body_len = header.length;
    trace_.add(obs);
    metrics_.records_observed.inc();

    if (dir == net::Direction::kClientToServer &&
        header.type == tls::ContentType::kApplicationData &&
        header.length >= kGetMinRecordBody) {
      ++get_count_;
      metrics_.gets_counted.inc();
      auto& tr = obs::tracer();
      if (tr.enabled(obs::Component::kAttack)) {
        tr.instant(obs::Component::kAttack, "get-seen", now,
                   obs::track::kAdversary, 0,
                   obs::TraceArgs()
                       .add("index", get_count_)
                       .add("record_len", header.length)
                       .take());
      }
      if (on_get) on_get(get_count_, now);
    }
  }
}

}  // namespace h2sim::attack
