#include "capture/frame.hpp"

#include <bit>
#include <cstring>

namespace h2sim::capture {

namespace {

// Real TCP wire flag bits; the simulator's net::tcpflag values are a private
// enumeration, so encode/decode translate.
constexpr std::uint8_t kWireFin = 0x01;
constexpr std::uint8_t kWireSyn = 0x02;
constexpr std::uint8_t kWireRst = 0x04;
constexpr std::uint8_t kWirePsh = 0x08;
constexpr std::uint8_t kWireAck = 0x10;

constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

std::uint8_t* put_u16be(std::uint8_t* o, std::uint16_t v) {
  o[0] = static_cast<std::uint8_t>(v >> 8);
  o[1] = static_cast<std::uint8_t>(v);
  return o + 2;
}

std::uint8_t* put_u32be(std::uint8_t* o, std::uint32_t v) {
  o = put_u16be(o, static_cast<std::uint16_t>(v >> 16));
  return put_u16be(o, static_cast<std::uint16_t>(v));
}

std::uint16_t get_u16be(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

std::uint32_t get_u32be(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 | static_cast<std::uint32_t>(p[3]);
}

std::uint8_t* put_mac(std::uint8_t* o, net::NodeId node) {
  const std::uint8_t mac[6] = {0x02, 0, 0, 0, 0,  // locally administered
                               static_cast<std::uint8_t>(node)};
  std::memcpy(o, mac, sizeof(mac));
  return o + sizeof(mac);
}

/// Folds a ones-complement sum to 16 bits.
std::uint16_t fold(std::uint64_t sum) {
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

/// Copies `n` bytes from `src` to `dst` and returns their RFC 1071 sum
/// (folded, not complemented), in one pass of 8-byte words. The sum of
/// native-order words is the byte-swapped sum of big-endian ones (RFC 1071
/// §2(B)), and 32-bit lanes fold to the same 16-bit sum (§2(C)).
std::uint16_t copy_and_sum(std::uint8_t* dst, const std::uint8_t* src,
                           std::size_t n) {
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, src + i, 8);
    std::memcpy(dst + i, &w, 8);
    sum += (w & 0xFFFFFFFF) + (w >> 32);
  }
  if (i < n) {
    std::uint64_t w = 0;  // the tail, zero-filled past the last byte
    std::memcpy(&w, src + i, n - i);
    std::memcpy(dst + i, &w, n - i);
    sum += (w & 0xFFFFFFFF) + (w >> 32);
  }
  const std::uint16_t s = fold(sum);
  if constexpr (std::endian::native == std::endian::little) {
    return static_cast<std::uint16_t>(s << 8 | s >> 8);
  }
  return s;
}

std::uint8_t wire_flags(const net::TcpHeader& h) {
  std::uint8_t f = 0;
  if (h.syn()) f |= kWireSyn;
  if (h.ack_flag()) f |= kWireAck;
  if (h.fin()) f |= kWireFin;
  if (h.rst()) f |= kWireRst;
  return f;
}

bool fail(std::string* error, const char* msg) {
  if (error) *error = msg;
  return false;
}

}  // namespace

std::uint16_t inet_checksum(std::span<const std::uint8_t> data,
                            std::uint32_t sum) {
  std::size_t i = 0;
  for (; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>(data[i] << 8 | data[i + 1]);
  }
  if (i < data.size()) sum += static_cast<std::uint32_t>(data[i] << 8);
  return static_cast<std::uint16_t>(~fold(sum));
}

void encode_frame(const net::Packet& p, std::span<std::uint8_t> out) {
  std::uint8_t* o = out.data();

  // Ethernet II.
  o = put_mac(o, p.dst);
  o = put_mac(o, p.src);
  o = put_u16be(o, kEtherTypeIpv4);

  // IPv4.
  std::uint8_t* const ip = o;
  const std::uint32_t src_ip = 0x0A000000u | p.src;  // 10.0.0.<src>
  const std::uint32_t dst_ip = 0x0A000000u | p.dst;  // 10.0.0.<dst>
  const std::uint16_t seg_len =
      static_cast<std::uint16_t>(kTcpHeaderBytes + p.payload.size());
  *o++ = 0x45;  // version 4, IHL 5
  *o++ = 0x00;  // DSCP/ECN
  o = put_u16be(o, static_cast<std::uint16_t>(kIpv4HeaderBytes + seg_len));
  o = put_u16be(o, static_cast<std::uint16_t>(p.id));  // identification
  o = put_u16be(o, 0x4000);                            // DF, no fragmentation
  *o++ = 64;                                           // TTL
  *o++ = 6;                                            // protocol: TCP
  o = put_u16be(o, 0);                                 // checksum placeholder
  o = put_u32be(o, src_ip);
  o = put_u32be(o, dst_ip);
  put_u16be(ip + 10, inet_checksum(std::span(ip, kIpv4HeaderBytes)));

  // TCP.
  std::uint8_t* const tcp = o;
  o = put_u16be(o, p.tcp.src_port);
  o = put_u16be(o, p.tcp.dst_port);
  o = put_u32be(o, p.tcp.seq);
  o = put_u32be(o, p.tcp.ack);
  *o++ = 0x50;  // data offset 5, no options
  std::uint8_t f = wire_flags(p.tcp);
  if (!p.payload.empty() && !p.tcp.syn()) f |= kWirePsh;
  *o++ = f;
  // The simulated window is not constrained to 16 bits; clamp (we write no
  // window-scale option, and no consumer of the capture reads the window).
  o = put_u16be(o, static_cast<std::uint16_t>(
                       p.tcp.wnd > 0xFFFF ? 0xFFFF : p.tcp.wnd));
  o = put_u16be(o, 0);  // checksum placeholder
  o = put_u16be(o, 0);  // urgent pointer

  // TCP checksum over pseudo-header + header + payload, the payload summed
  // as it is copied.
  std::uint32_t sum = (src_ip >> 16) + (src_ip & 0xFFFF) + (dst_ip >> 16) +
                      (dst_ip & 0xFFFF) + 6 /* zero byte + protocol */ +
                      seg_len;
  sum += copy_and_sum(o, p.payload.data(), p.payload.size());
  put_u16be(tcp + 16,
            inet_checksum(std::span(tcp, kTcpHeaderBytes), sum));
}

bool decode_frame(std::span<const std::uint8_t> frame, net::Packet* p,
                  std::string* error) {
  if (frame.size() < kFrameOverheadBytes) return fail(error, "frame too short");
  if (get_u16be(frame.data() + 12) != kEtherTypeIpv4) {
    return fail(error, "not IPv4");
  }

  const std::uint8_t* ip = frame.data() + kEthernetHeaderBytes;
  const std::size_t ip_avail = frame.size() - kEthernetHeaderBytes;
  if ((ip[0] >> 4) != 4) return fail(error, "not IPv4");
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
  if (ihl < kIpv4HeaderBytes || ip_avail < ihl) return fail(error, "bad IHL");
  if (ip[9] != 6) return fail(error, "not TCP");
  const std::size_t total_len = get_u16be(ip + 2);
  // Ethernet minimum-frame padding may trail the datagram; the IP total
  // length delimits the real payload.
  if (total_len < ihl || total_len > ip_avail) {
    return fail(error, "bad IP total length");
  }

  const std::uint8_t* tcp = ip + ihl;
  const std::size_t tcp_avail = total_len - ihl;
  if (tcp_avail < kTcpHeaderBytes) return fail(error, "truncated TCP header");
  const std::size_t doff = static_cast<std::size_t>(tcp[12] >> 4) * 4;
  if (doff < kTcpHeaderBytes || doff > tcp_avail) {
    return fail(error, "bad TCP data offset");
  }

  p->src = ip[15];  // 10.0.0.<node>
  p->dst = ip[19];
  p->tcp.src_port = get_u16be(tcp);
  p->tcp.dst_port = get_u16be(tcp + 2);
  p->tcp.seq = get_u32be(tcp + 4);
  p->tcp.ack = get_u32be(tcp + 8);
  const std::uint8_t wf = tcp[13];
  p->tcp.flags = 0;
  if (wf & kWireSyn) p->tcp.flags |= net::tcpflag::kSyn;
  if (wf & kWireAck) p->tcp.flags |= net::tcpflag::kAck;
  if (wf & kWireFin) p->tcp.flags |= net::tcpflag::kFin;
  if (wf & kWireRst) p->tcp.flags |= net::tcpflag::kRst;
  p->tcp.wnd = get_u16be(tcp + 14);
  p->payload.assign(tcp + doff, tcp + tcp_avail);
  return true;
}

}  // namespace h2sim::capture
