#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/trace.hpp"
#include "attack/monitor.hpp"
#include "capture/pcapng.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace h2sim::capture {

/// One ingested frame, decoded back into the simulator's packet model.
struct CapturedPacket {
  std::uint32_t iface = 0;
  sim::TimePoint time;
  net::Packet packet;
};

/// Reads a PCAPNG capture (ours or an external one) and decodes its frames
/// into simulated packets. Frames that are not plain IPv4/TCP (ARP, IPv6,
/// UDP...) are counted and skipped, so real-world captures ingest cleanly.
class PcapReader {
 public:
  /// Parses and decodes the whole file. False with a message in `*error` on
  /// malformed pcapng; per-frame decode failures only bump skipped_frames().
  bool open(const std::string& path, std::string* error);

  const std::vector<PcapngInterface>& interfaces() const {
    return reader_.interfaces();
  }
  /// Interface id by if_name; nullopt when absent.
  std::optional<std::uint32_t> find_interface(std::string_view name) const;

  /// The vantage h2sim-analyze should read when none is named: "gateway"
  /// when present (the adversary view), else interface 0.
  std::uint32_t default_interface() const;

  /// All decoded packets, in file order.
  const std::vector<CapturedPacket>& packets() const { return packets_; }
  /// Decoded packets belonging to one interface, in file order.
  std::vector<const CapturedPacket*> packets_on(std::uint32_t iface) const;

  std::uint64_t skipped_frames() const { return skipped_frames_; }

 private:
  PcapngReader reader_;
  std::vector<CapturedPacket> packets_;
  std::uint64_t skipped_frames_ = 0;
};

/// Rebuilds the adversary's RecordObs stream from captured packets: per-flow
/// TCP reassembly (reordering and deduplicating by sequence number) feeding
/// the cleartext TLS record-header parser. Internally this IS the live
/// attack::TrafficMonitor — the same code path a live trial runs at the
/// gateway tap — so an exported-then-ingested capture reproduces the live
/// trial's analysis::PacketTrace exactly, records, timestamps and all.
struct ReassemblerConfig {
  /// TCP port identifying the server side; packets toward it are
  /// client->server. 443 for our captures and almost any HTTPS trace.
  net::Port server_port = 443;
};

class TlsRecordReassembler {
 public:
  explicit TlsRecordReassembler(ReassemblerConfig cfg = {});

  void feed(const CapturedPacket& cp);
  void feed_all(std::span<const CapturedPacket> packets);
  void feed_all(std::span<const CapturedPacket* const> packets);

  const analysis::PacketTrace& trace() const { return monitor_.trace(); }
  int get_count() const { return monitor_.get_count(); }
  attack::TrafficMonitor& monitor() { return monitor_; }

  net::Direction direction_of(const net::Packet& p) const {
    return p.tcp.dst_port == cfg_.server_port
               ? net::Direction::kClientToServer
               : net::Direction::kServerToClient;
  }

 private:
  ReassemblerConfig cfg_;
  attack::TrafficMonitor monitor_;
  std::uint64_t next_id_ = 1;
};

}  // namespace h2sim::capture
