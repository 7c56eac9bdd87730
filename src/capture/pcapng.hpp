#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace h2sim::capture {

/// PCAPNG linktype values we understand (LINKTYPE_* registry).
inline constexpr std::uint16_t kLinktypeEthernet = 1;

/// One capture interface, as written by PcapngWriter or recovered from an
/// Interface Description Block. `tsresol_exp` is the power-of-ten timestamp
/// resolution exponent (9 = nanoseconds, 6 = microseconds — the pcapng
/// default when the option is absent).
struct PcapngInterface {
  std::string name;
  std::string description;
  std::uint16_t linktype = kLinktypeEthernet;
  std::uint8_t tsresol_exp = 6;
};

/// One captured frame from an Enhanced Packet Block. `ts_nanos` is always
/// normalized to nanoseconds regardless of the file's native resolution.
struct PcapngPacket {
  std::uint32_t iface = 0;
  std::int64_t ts_nanos = 0;
  std::uint32_t orig_len = 0;
  std::vector<std::uint8_t> frame;  // captured link-layer bytes
};

/// Serializes a PCAPNG section: one Section Header Block, one Interface
/// Description Block per vantage point (nanosecond if_tsresol), then
/// Enhanced Packet Blocks in write order. Content is deterministic: the
/// writer never embeds wall-clock time, host names, or tool versions, so a
/// byte-identical simulation produces a byte-identical file (the golden-trace
/// corpus depends on this).
///
/// Blocks accumulate in memory and hit the filesystem in one write at
/// close(); a simulated trial's capture is at most a few megabytes.
class PcapngWriter {
 public:
  explicit PcapngWriter(std::string path);

  PcapngWriter(const PcapngWriter&) = delete;
  PcapngWriter& operator=(const PcapngWriter&) = delete;

  /// Registers a vantage-point interface; returns its interface id.
  /// Must be called before the first write_packet for that id.
  std::uint32_t add_interface(const std::string& name,
                              const std::string& description);

  void write_packet(std::uint32_t iface, std::int64_t ts_nanos,
                    std::span<const std::uint8_t> frame);

  /// Flushes the buffered section to `path`. False (errno intact) on IO
  /// failure. Idempotent; the destructor calls it if the caller did not.
  bool close();

  std::uint64_t packets_written() const { return packets_written_; }
  /// Total pcapng bytes buffered so far (section + interface + packet
  /// blocks) — the value capture_bytes_written reports.
  std::uint64_t bytes_buffered() const { return buf_.size(); }
  const std::string& path() const { return path_; }

  ~PcapngWriter();

 private:
  std::string path_;
  std::vector<std::uint8_t> buf_;
  std::uint32_t interfaces_ = 0;
  std::uint64_t packets_written_ = 0;
  bool closed_ = false;
};

/// Parses a PCAPNG file into interfaces + packets. Handles both byte orders,
/// power-of-ten if_tsresol values, and skips unknown block types — enough to
/// ingest our own captures and typical single-section tshark/tcpdump output.
class PcapngReader {
 public:
  /// Reads and parses the whole file. False with a human-readable message in
  /// `*error` on malformed input or IO failure — among it a block whose
  /// trailing length differs from its leading one, and bytes after the last
  /// block too few to hold one.
  bool open(const std::string& path, std::string* error);

  const std::vector<PcapngInterface>& interfaces() const { return interfaces_; }
  const std::vector<PcapngPacket>& packets() const { return packets_; }

 private:
  std::vector<PcapngInterface> interfaces_;
  std::vector<PcapngPacket> packets_;
};

}  // namespace h2sim::capture
