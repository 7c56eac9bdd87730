#include "capture/session.hpp"

#include "capture/frame.hpp"
#include "obs/context.hpp"

namespace h2sim::capture {

CaptureSession::CaptureSession(sim::EventLoop& loop, net::Topology& topo,
                               CaptureConfig cfg)
    : writer_(cfg.path) {
  (void)loop;  // taps receive their timestamps from the tapped components
  auto& reg = obs::metrics();
  metrics_.packets = reg.counter("capture.packets");
  metrics_.bytes_written = reg.counter("capture.bytes_written");

  // Interface ids depend only on which vantages are enabled, so a given
  // config always produces the same interface layout (golden determinism).
  if (cfg.client_vantage) {
    const std::uint32_t id =
        writer_.add_interface("client", "victim host (c2m egress + m2c ingress)");
    topo.client_to_mb(0).set_send_tap(
        [this, id](const net::Packet& p, sim::TimePoint t) { record(id, p, t); });
    topo.mb_to_client(0).set_deliver_tap(
        [this, id](const net::Packet& p, sim::TimePoint t) { record(id, p, t); });
  }
  if (cfg.gateway_vantage) {
    const std::uint32_t id = writer_.add_interface(
        "gateway", "compromised middlebox (both directions, pre-policy)");
    topo.middlebox().add_tap([this, id](const net::Packet& p, net::Direction,
                                        sim::TimePoint t) { record(id, p, t); });
  }
  if (cfg.server_vantage) {
    const std::uint32_t id =
        writer_.add_interface("server", "origin host (s2m egress + m2s ingress)");
    topo.server_to_mb().set_send_tap(
        [this, id](const net::Packet& p, sim::TimePoint t) { record(id, p, t); });
    topo.mb_to_server().set_deliver_tap(
        [this, id](const net::Packet& p, sim::TimePoint t) { record(id, p, t); });
  }
}

void CaptureSession::record(std::uint32_t iface, const net::Packet& p,
                            sim::TimePoint t) {
  obs::ProfileScope prof(obs::Component::kCapture);
  encode_frame(p, writer_.begin_packet(iface, t.count_nanos(), frame_size(p)));
  metrics_.packets.inc();
  // Count against the total written size (not just this packet's block), so
  // the section/interface header bytes are attributed to the first packet and
  // the counter equals the final file size exactly.
  metrics_.bytes_written.add(writer_.bytes_written() - counted_bytes_);
  counted_bytes_ = writer_.bytes_written();
}

bool CaptureSession::close() { return writer_.close(); }

}  // namespace h2sim::capture
