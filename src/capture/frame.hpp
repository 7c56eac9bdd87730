#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "net/packet.hpp"

namespace h2sim::capture {

/// Ethernet(14) + IPv4(20) + TCP(20) synthetic framing around a simulated
/// packet's TCP payload. Node ids map to 10.0.0.<id> and locally-administered
/// MACs 02:00:00:00:00:<id>, so standard tooling (tshark, Wireshark) renders
/// the capture as an ordinary TCP/TLS flow.
inline constexpr std::size_t kEthernetHeaderBytes = 14;
inline constexpr std::size_t kIpv4HeaderBytes = 20;
inline constexpr std::size_t kTcpHeaderBytes = 20;
inline constexpr std::size_t kFrameOverheadBytes =
    kEthernetHeaderBytes + kIpv4HeaderBytes + kTcpHeaderBytes;

/// Total frame size for a packet (no FCS; pcap captures omit it).
inline std::size_t frame_size(const net::Packet& p) {
  return kFrameOverheadBytes + p.payload.size();
}

/// Writes the framed packet over `out`, exactly frame_size(p) bytes: the
/// headers in place, then the payload, summed for the TCP checksum as it is
/// copied. IPv4 and TCP checksums are computed properly so validating
/// dissectors raise no warnings.
void encode_frame(const net::Packet& p, std::span<std::uint8_t> out);

/// Parses an Ethernet/IPv4/TCP frame back into a simulated packet: node ids
/// from the IP addresses' last octet, TCP header fields, payload bytes.
/// `p->id`, `p->sent_at` and `p->is_retransmission` are not on the wire and
/// are left default. False (reason in `*error`) for anything that is not a
/// plain IPv4/TCP frame — callers skip such frames when ingesting external
/// captures.
bool decode_frame(std::span<const std::uint8_t> frame, net::Packet* p,
                  std::string* error);

/// RFC 1071 ones-complement sum over `data`, starting from `sum` (used for
/// the TCP pseudo-header). Exposed for tests.
std::uint16_t inet_checksum(std::span<const std::uint8_t> data,
                            std::uint32_t sum = 0);

}  // namespace h2sim::capture
