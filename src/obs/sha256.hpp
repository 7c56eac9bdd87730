#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace h2sim::obs {

/// Minimal streaming SHA-256 (FIPS 180-4). Used by the campaign manifest to
/// fingerprint NDJSON shards so a resumed run can prove the rows it replays
/// are the rows the interrupted run wrote. Not a general-purpose crypto
/// dependency — the simulator has no secrecy requirements; this is a
/// content-addressing checksum.
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  void update(const void* data, std::size_t len);
  void update(const std::string& s) { update(s.data(), s.size()); }

  /// Finalizes and returns the 64-char lowercase hex digest. The object is
  /// left finalized; call reset() to reuse it.
  std::string hex_digest();

 private:
  void process_block(const std::uint8_t* block);

  std::uint32_t state_[8];
  std::uint64_t bit_count_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffer_len_ = 0;
};

/// One-shot helper.
std::string sha256_hex(const std::string& data);

}  // namespace h2sim::obs
