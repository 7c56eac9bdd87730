#pragma once

#include <memory>
#include <string>

#include "capture/pcapng.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"

namespace h2sim::capture {

/// Which points on the paper's client--gateway--server path a capture
/// records. Each enabled vantage becomes one pcapng interface:
///   - "client":  packets leaving the client (c2m send) and arriving at it
///                (m2c delivery) — tcpdump on the victim's machine.
///   - "gateway": every packet the middlebox sees on arrival, both
///                directions, before any adversarial policy — tshark on the
///                compromised gateway, the paper's adversary view.
///   - "server":  packets leaving the server (s2m send) and arriving at it
///                (m2s delivery).
struct CaptureConfig {
  std::string path;
  bool client_vantage = false;
  bool gateway_vantage = true;
  bool server_vantage = false;
};

/// Taps a net::Topology and streams every observed packet into a PCAPNG file
/// with synthetic Ethernet/IPv4/TCP framing and nanosecond simulated
/// timestamps. The client vantage records the victim stack (client 0); in a
/// multi-client topology the gateway vantage additionally sees every
/// background flow, exactly like tshark on the shared middlebox.
/// Construction installs the taps; the file streams out as the writer's
/// buffer fills, and close() (or destruction) writes the rest. Purely
/// observational: attaching a session changes no packet timing, ordering, or
/// content, so a captured trial's TrialResult is identical to an uncaptured
/// one except for the capture counters.
class CaptureSession {
 public:
  CaptureSession(sim::EventLoop& loop, net::Topology& topo, CaptureConfig cfg);

  CaptureSession(const CaptureSession&) = delete;
  CaptureSession& operator=(const CaptureSession&) = delete;

  /// Flushes and closes the pcapng file. False if it could not be opened or
  /// written. Idempotent.
  bool close();

 private:
  void record(std::uint32_t iface, const net::Packet& p, sim::TimePoint t);

  PcapngWriter writer_;
  std::uint64_t counted_bytes_ = 0;  // pcapng bytes already metered

  struct Metrics {
    obs::Counter packets;        // capture.packets
    obs::Counter bytes_written;  // capture.bytes_written
  };
  Metrics metrics_;
};

}  // namespace h2sim::capture
