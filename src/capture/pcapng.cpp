#include "capture/pcapng.hpp"

#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

namespace h2sim::capture {

namespace {

// Block type codes (pcapng spec, draft-ietf-opsawg-pcapng).
constexpr std::uint32_t kBlockSection = 0x0A0D0D0A;
constexpr std::uint32_t kBlockInterface = 0x00000001;
constexpr std::uint32_t kBlockEnhancedPacket = 0x00000006;
constexpr std::uint32_t kByteOrderMagic = 0x1A2B3C4D;

constexpr std::uint16_t kOptEnd = 0;
constexpr std::uint16_t kOptIfName = 2;
constexpr std::uint16_t kOptIfDescription = 3;
constexpr std::uint16_t kOptIfTsresol = 9;

void put_u16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v >> 16));
  b.push_back(static_cast<std::uint8_t>(v >> 24));
}

void pad_to4(std::vector<std::uint8_t>& b) {
  while (b.size() % 4 != 0) b.push_back(0);
}

/// Appends one option (value padded to 4 bytes) to a block body.
void put_option(std::vector<std::uint8_t>& b, std::uint16_t code,
                std::span<const std::uint8_t> value) {
  put_u16(b, code);
  put_u16(b, static_cast<std::uint16_t>(value.size()));
  b.insert(b.end(), value.begin(), value.end());
  pad_to4(b);
}

/// Wraps a block body in type + length framing (length repeated at the end,
/// as the spec requires for backward seeking).
void put_block(std::vector<std::uint8_t>& out, std::uint32_t type,
               std::span<const std::uint8_t> body) {
  const std::uint32_t total = static_cast<std::uint32_t>(12 + body.size());
  put_u32(out, type);
  put_u32(out, total);
  out.insert(out.end(), body.begin(), body.end());
  put_u32(out, total);
}

}  // namespace

PcapngWriter::PcapngWriter(std::string path) : path_(std::move(path)) {
  // Section Header Block: byte-order magic, version 1.0, unknown section
  // length. No options — anything like shb_os or shb_userappl would embed
  // machine state and break golden-file determinism.
  std::vector<std::uint8_t> body;
  put_u32(body, kByteOrderMagic);
  put_u16(body, 1);  // major
  put_u16(body, 0);  // minor
  put_u32(body, 0xFFFFFFFF);  // section length: unspecified
  put_u32(body, 0xFFFFFFFF);
  put_block(buf_, kBlockSection, body);
}

std::uint32_t PcapngWriter::add_interface(const std::string& name,
                                          const std::string& description) {
  std::vector<std::uint8_t> body;
  put_u16(body, kLinktypeEthernet);
  put_u16(body, 0);  // reserved
  put_u32(body, 0);  // snaplen: unlimited
  put_option(body, kOptIfName,
             std::span(reinterpret_cast<const std::uint8_t*>(name.data()),
                       name.size()));
  if (!description.empty()) {
    put_option(
        body, kOptIfDescription,
        std::span(reinterpret_cast<const std::uint8_t*>(description.data()),
                  description.size()));
  }
  const std::uint8_t tsresol = 9;  // nanoseconds
  put_option(body, kOptIfTsresol, std::span(&tsresol, 1));
  put_option(body, kOptEnd, {});
  put_block(buf_, kBlockInterface, body);
  return interfaces_++;
}

void PcapngWriter::write_packet(std::uint32_t iface, std::int64_t ts_nanos,
                                std::span<const std::uint8_t> frame) {
  std::vector<std::uint8_t> body;
  body.reserve(20 + frame.size() + 3);
  put_u32(body, iface);
  const std::uint64_t ts = static_cast<std::uint64_t>(ts_nanos);
  put_u32(body, static_cast<std::uint32_t>(ts >> 32));
  put_u32(body, static_cast<std::uint32_t>(ts));
  put_u32(body, static_cast<std::uint32_t>(frame.size()));  // captured
  put_u32(body, static_cast<std::uint32_t>(frame.size()));  // original
  body.insert(body.end(), frame.begin(), frame.end());
  pad_to4(body);
  put_block(buf_, kBlockEnhancedPacket, body);
  ++packets_written_;
}

bool PcapngWriter::close() {
  if (closed_) return true;
  closed_ = true;
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (!f) return false;
  const bool ok =
      buf_.empty() || std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
  return std::fclose(f) == 0 && ok;
}

PcapngWriter::~PcapngWriter() {
  if (!closed_) close();
}

namespace {

/// Cursor over the raw file bytes with a per-section byte order.
struct Cursor {
  const std::uint8_t* p = nullptr;
  std::size_t len = 0;
  std::size_t off = 0;
  bool big_endian = false;

  bool has(std::size_t n) const { return off + n <= len; }

  std::uint16_t u16() {
    std::uint16_t v;
    if (big_endian) {
      v = static_cast<std::uint16_t>(p[off] << 8 | p[off + 1]);
    } else {
      v = static_cast<std::uint16_t>(p[off] | p[off + 1] << 8);
    }
    off += 2;
    return v;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    if (big_endian) {
      v = static_cast<std::uint32_t>(p[off]) << 24 |
          static_cast<std::uint32_t>(p[off + 1]) << 16 |
          static_cast<std::uint32_t>(p[off + 2]) << 8 |
          static_cast<std::uint32_t>(p[off + 3]);
    } else {
      v = static_cast<std::uint32_t>(p[off]) |
          static_cast<std::uint32_t>(p[off + 1]) << 8 |
          static_cast<std::uint32_t>(p[off + 2]) << 16 |
          static_cast<std::uint32_t>(p[off + 3]) << 24;
    }
    off += 4;
    return v;
  }
};

/// Largest if_tsresol exponent read: 10^18 is the largest power of ten an
/// int64 holds.
constexpr int kMaxTsresolExp = 18;
constexpr std::uint64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

std::uint64_t pow10_u64(int e) {
  std::uint64_t v = 1;
  for (int i = 0; i < e; ++i) v *= 10;
  return v;
}

bool fail(std::string* error, const std::string& msg) {
  if (error) *error = msg;
  return false;
}

}  // namespace

bool PcapngReader::open(const std::string& path, std::string* error) {
  interfaces_.clear();
  packets_.clear();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return fail(error, "cannot open " + path);
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[65536];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  std::fclose(f);
  if (data.size() < 28) return fail(error, path + ": too short for pcapng");

  Cursor c{data.data(), data.size(), 0, false};
  bool saw_section = false;
  while (c.off < data.size()) {
    if (!c.has(12)) return fail(error, path + ": truncated block");
    const std::size_t block_start = c.off;
    std::uint32_t type = c.u32();
    // The SHB's byte-order magic governs everything that follows, including
    // this block's own length field; peek it before trusting the length.
    if (type == kBlockSection) {
      if (!c.has(8)) return fail(error, path + ": truncated section header");
      const std::size_t save = c.off;
      c.off += 4;  // total length (endianness still unknown)
      std::uint32_t magic_le = c.u32();
      c.big_endian = magic_le != kByteOrderMagic;
      if (c.big_endian) {
        c.off = save + 4;
        if (c.u32() != kByteOrderMagic) {
          return fail(error, path + ": bad byte-order magic");
        }
      }
      c.off = save;
      saw_section = true;
    } else if (!saw_section) {
      return fail(error, path + ": does not start with a section header "
                                "(legacy pcap is not supported)");
    }
    std::uint32_t total = c.u32();
    if (total < 12 || total % 4 != 0 || block_start + total > data.size()) {
      return fail(error, path + ": bad block length");
    }
    const std::size_t body_end = block_start + total - 4;
    Cursor trailer = c;
    trailer.off = body_end;
    if (trailer.u32() != total) {
      return fail(error, path + ": block trailer length mismatch");
    }

    if (type == kBlockInterface) {
      if (c.off + 8 > body_end) return fail(error, path + ": truncated IDB");
      PcapngInterface idb;
      idb.linktype = c.u16();
      c.u16();  // reserved
      c.u32();  // snaplen
      while (c.off + 4 <= body_end) {
        const std::uint16_t code = c.u16();
        const std::uint16_t olen = c.u16();
        if (c.off + olen > body_end) return fail(error, path + ": bad option");
        if (code == kOptEnd) break;
        const char* val = reinterpret_cast<const char*>(c.p + c.off);
        if (code == kOptIfName) idb.name.assign(val, olen);
        if (code == kOptIfDescription) idb.description.assign(val, olen);
        if (code == kOptIfTsresol && olen >= 1) {
          const std::uint8_t r = c.p[c.off];
          // High bit set = power of two; we only understand powers of ten.
          if (r & 0x80) {
            return fail(error, path + ": power-of-two if_tsresol unsupported");
          }
          if (r > kMaxTsresolExp) {
            return fail(error, path + ": if_tsresol exponent " +
                                   std::to_string(r) + " exceeds " +
                                   std::to_string(kMaxTsresolExp));
          }
          idb.tsresol_exp = r;
        }
        c.off += olen;
        while (c.off % 4 != 0 && c.off < body_end) ++c.off;
      }
      interfaces_.push_back(std::move(idb));
    } else if (type == kBlockEnhancedPacket) {
      if (c.off + 20 > body_end) return fail(error, path + ": truncated EPB");
      PcapngPacket pkt;
      pkt.iface = c.u32();
      const std::uint64_t ts_high = c.u32();
      const std::uint64_t ts_low = c.u32();
      const std::uint32_t cap_len = c.u32();
      pkt.orig_len = c.u32();
      if (c.off + cap_len > body_end) {
        return fail(error, path + ": EPB capture length overruns block");
      }
      if (pkt.iface >= interfaces_.size()) {
        return fail(error, path + ": EPB references unknown interface");
      }
      const std::uint64_t ticks = ts_high << 32 | ts_low;
      const int exp = interfaces_[pkt.iface].tsresol_exp;
      // Normalize to nanoseconds: scale up for coarser clocks, truncate for
      // (hypothetical) finer-than-ns ones. Only scaling up can leave int64.
      const std::uint64_t scale = pow10_u64(exp <= 9 ? 9 - exp : exp - 9);
      if (exp <= 9 && ticks > kInt64Max / scale) {
        return fail(error, path + ": EPB timestamp overflows int64 nanoseconds");
      }
      pkt.ts_nanos =
          static_cast<std::int64_t>(exp <= 9 ? ticks * scale : ticks / scale);
      pkt.frame.assign(c.p + c.off, c.p + c.off + cap_len);
      packets_.push_back(std::move(pkt));
    }
    // Section headers, statistics, name resolution, unknown blocks: skip.
    c.off = block_start + total;
  }
  if (!saw_section) return fail(error, path + ": no section header found");
  return true;
}

}  // namespace h2sim::capture
