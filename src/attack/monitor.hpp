#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "analysis/trace.hpp"
#include "net/middlebox.hpp"
#include "net/packet.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"
#include "tcp/reassembly.hpp"
#include "tls/record.hpp"

namespace h2sim::attack {

/// The adversary's tshark: passively reassembles each direction's TCP byte
/// stream at the gateway and parses TLS record headers out of it (record
/// headers are cleartext). Emits the packet trace the prediction module
/// consumes, and fires a callback per client GET — identified, as in the
/// paper, by `content_type == 23` application-data records large enough to
/// be requests rather than WINDOW_UPDATE chatter.
class TrafficMonitor {
 public:
  /// Minimum record body for a client->server application-data record to
  /// count as a GET request. Chatter sits well below: WINDOW_UPDATE ~29 B,
  /// SETTINGS ~55 B, the connection preface 40 B, PING 33 B; HPACK'd GETs
  /// with a cookie land at ~80+ B.
  static constexpr std::size_t kGetMinRecordBody = 60;

  TrafficMonitor() {
    auto& reg = obs::metrics();
    metrics_.records_observed = reg.counter("attack.records_observed");
    metrics_.gets_counted = reg.counter("attack.gets_counted");
  }

  /// Wire into Middlebox::add_tap.
  void observe(const net::Packet& p, net::Direction dir, sim::TimePoint now);

  const analysis::PacketTrace& trace() const { return trace_; }
  int get_count() const { return get_count_; }

  /// True when the most recently observed packet with this id started a new
  /// client->server application-data record large enough to be a request.
  /// The controller consults this right after the tap runs (same packet):
  /// the monitor classifies, the controller acts — the paper's
  /// monitor-informs-controller architecture.
  bool packet_is_request(std::uint64_t packet_id) const {
    return packet_id == last_request_packet_id_;
  }

  /// True when the most recently observed packet was a client->server TCP
  /// retransmission (its payload lies at or below the reassembled stream
  /// head). While the adversary holds the original request, TCP's
  /// retransmission of those bytes would race past the hold and deliver the
  /// bundled requests early — the controller drops them instead (the §VII
  /// "trigger the packet drops accurately" refinement).
  bool packet_is_c2s_retransmission(std::uint64_t packet_id) const {
    return packet_id == last_c2s_retrans_packet_id_;
  }

  /// Invoked with the 1-based GET index each time a request is spotted.
  std::function<void(int index, sim::TimePoint)> on_get;

 private:
  struct StreamState {
    bool synced = false;
    std::uint32_t next_seq = 0;
    tcp::ReorderQueue ooo;
    tls::RecordParser parser;
  };

  void drain_records(StreamState& st, net::Direction dir, sim::TimePoint now);

  // Keyed by (client node, client port) per direction: one entry per TCP
  // connection, unambiguous even when several client stacks share the
  // gateway and their ephemeral port ranges collide.
  std::map<std::uint64_t, StreamState> c2s_;
  std::map<std::uint64_t, StreamState> s2c_;
  analysis::PacketTrace trace_;
  int get_count_ = 0;
  std::uint64_t last_request_packet_id_ = 0;
  std::uint64_t last_c2s_retrans_packet_id_ = 0;

  struct Metrics {
    obs::Counter records_observed;
    obs::Counter gets_counted;
  };
  Metrics metrics_;
};

}  // namespace h2sim::attack
