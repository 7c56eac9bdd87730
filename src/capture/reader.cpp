#include "capture/reader.hpp"

#include "capture/frame.hpp"
#include "obs/context.hpp"

namespace h2sim::capture {

bool PcapReader::open(const std::string& path, std::string* error) {
  packets_.clear();
  skipped_frames_ = 0;
  if (!reader_.open(path, error)) return false;
  for (const PcapngPacket& raw : reader_.packets()) {
    if (reader_.interfaces()[raw.iface].linktype != kLinktypeEthernet) {
      ++skipped_frames_;
      continue;
    }
    CapturedPacket cp;
    cp.iface = raw.iface;
    cp.time = sim::TimePoint::from_nanos(raw.ts_nanos);
    if (!decode_frame(raw.frame, &cp.packet, nullptr)) {
      ++skipped_frames_;
      continue;
    }
    packets_.push_back(std::move(cp));
  }
  obs::metrics().counter("capture.packets_read").add(packets_.size());
  return true;
}

std::optional<std::uint32_t> PcapReader::find_interface(
    std::string_view name) const {
  const auto& ifs = reader_.interfaces();
  for (std::size_t i = 0; i < ifs.size(); ++i) {
    if (ifs[i].name == name) return static_cast<std::uint32_t>(i);
  }
  return std::nullopt;
}

std::uint32_t PcapReader::default_interface() const {
  return find_interface("gateway").value_or(0);
}

std::vector<const CapturedPacket*> PcapReader::packets_on(
    std::uint32_t iface) const {
  std::vector<const CapturedPacket*> out;
  for (const CapturedPacket& cp : packets_) {
    if (cp.iface == iface) out.push_back(&cp);
  }
  return out;
}

TlsRecordReassembler::TlsRecordReassembler(ReassemblerConfig cfg)
    : cfg_(cfg) {}

void TlsRecordReassembler::feed(const CapturedPacket& cp) {
  // The monitor reads the packet id only to flag the most recent
  // request/retransmission for a live controller; offline, a fresh
  // sequential id keeps those flags well-defined.
  net::Packet p = cp.packet;
  p.id = next_id_++;
  monitor_.observe(p, direction_of(p), cp.time);
}

void TlsRecordReassembler::feed_all(std::span<const CapturedPacket> packets) {
  for (const CapturedPacket& cp : packets) feed(cp);
}

void TlsRecordReassembler::feed_all(
    std::span<const CapturedPacket* const> packets) {
  for (const CapturedPacket* cp : packets) feed(*cp);
}

}  // namespace h2sim::capture
