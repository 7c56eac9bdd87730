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

std::uint8_t* put_u16(std::uint8_t* o, std::uint16_t v) {
  o[0] = static_cast<std::uint8_t>(v);
  o[1] = static_cast<std::uint8_t>(v >> 8);
  return o + 2;
}

std::uint8_t* put_u32(std::uint8_t* o, std::uint32_t v) {
  o = put_u16(o, static_cast<std::uint16_t>(v));
  return put_u16(o, static_cast<std::uint16_t>(v >> 16));
}

std::size_t pad4(std::size_t n) { return (n + 3) & ~std::size_t{3}; }

/// Bytes one option takes in a block body: header plus value padded to 4.
std::size_t option_size(const std::string& value) {
  return 4 + pad4(value.size());
}

/// Writes one option (value zero-padded to 4 bytes) into a block body.
std::uint8_t* put_option(std::uint8_t* o, std::uint16_t code,
                         const std::string& value) {
  o = put_u16(o, code);
  o = put_u16(o, static_cast<std::uint16_t>(value.size()));
  std::memcpy(o, value.data(), value.size());
  std::memset(o + value.size(), 0, pad4(value.size()) - value.size());
  return o + pad4(value.size());
}

}  // namespace

PcapngWriter::PcapngWriter(std::string path)
    : path_(std::move(path)), buf_(kFlushBytes) {
  // Section Header Block: byte-order magic, version 1.0, unknown section
  // length. No options — anything like shb_os or shb_userappl would embed
  // machine state and break golden-file determinism.
  std::uint8_t* o = begin_block(kBlockSection, 16);
  o = put_u32(o, kByteOrderMagic);
  o = put_u16(o, 1);  // major
  o = put_u16(o, 0);  // minor
  o = put_u32(o, 0xFFFFFFFF);  // section length: unspecified
  put_u32(o, 0xFFFFFFFF);
}

std::uint32_t PcapngWriter::add_interface(const std::string& name,
                                          const std::string& description) {
  const std::string tsresol(1, 9);  // nanoseconds
  const std::size_t body_len =
      8 + option_size(name) +
      (description.empty() ? 0 : option_size(description)) +
      option_size(tsresol) + 4;
  std::uint8_t* o = begin_block(kBlockInterface, body_len);
  o = put_u16(o, kLinktypeEthernet);
  o = put_u16(o, 0);  // reserved
  o = put_u32(o, 0);  // snaplen: unlimited
  o = put_option(o, kOptIfName, name);
  if (!description.empty()) o = put_option(o, kOptIfDescription, description);
  o = put_option(o, kOptIfTsresol, tsresol);
  put_option(o, kOptEnd, {});
  return interfaces_++;
}

std::span<std::uint8_t> PcapngWriter::begin_packet(std::uint32_t iface,
                                                   std::int64_t ts_nanos,
                                                   std::size_t len) {
  std::uint8_t* o = begin_block(kBlockEnhancedPacket, 20 + len);
  o = put_u32(o, iface);
  const std::uint64_t ts = static_cast<std::uint64_t>(ts_nanos);
  o = put_u32(o, static_cast<std::uint32_t>(ts >> 32));
  o = put_u32(o, static_cast<std::uint32_t>(ts));
  o = put_u32(o, static_cast<std::uint32_t>(len));  // captured
  o = put_u32(o, static_cast<std::uint32_t>(len));  // original
  return {o, len};
}

std::uint8_t* PcapngWriter::begin_block(std::uint32_t type,
                                        std::size_t body_len) {
  // Type + length framing, the length repeated at the end as the spec
  // requires for backward seeking.
  const std::size_t total = 12 + pad4(body_len);
  if (len_ + total > buf_.size()) {
    flush();
    if (total > buf_.size()) buf_.resize(total);
  }
  std::uint8_t* block = buf_.data() + len_;
  len_ += total;
  put_u32(block, type);
  put_u32(block + 4, static_cast<std::uint32_t>(total));
  std::memset(block + 8 + body_len, 0, total - 12 - body_len);
  put_u32(block + total - 4, static_cast<std::uint32_t>(total));
  return block + 8;
}

void PcapngWriter::flush() {
  if (!file_ && !failed_) {
    file_ = std::fopen(path_.c_str(), "wb");
    failed_ = !file_;
    // Writes are already kFlushBytes blocks; stdio's buffer would only copy.
    if (file_) std::setvbuf(file_, nullptr, _IONBF, 0);
  }
  if (!failed_ && std::fwrite(buf_.data(), 1, len_, file_) != len_) {
    failed_ = true;
  }
  flushed_ += len_;
  len_ = 0;
}

bool PcapngWriter::close() {
  if (!closed_) {
    closed_ = true;
    flush();
    if (file_ && std::fclose(file_) != 0) failed_ = true;
    file_ = nullptr;
  }
  return !failed_;
}

PcapngWriter::~PcapngWriter() { close(); }

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
