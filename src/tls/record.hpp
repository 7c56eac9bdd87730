#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/byte_queue.hpp"

namespace h2sim::tls {

/// TLS record content types — cleartext on the wire. The paper's adversary
/// filters on `ssl.record.content_type == 23` to spot application data.
enum class ContentType : std::uint8_t {
  kChangeCipherSpec = 20,
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
};

inline constexpr std::uint16_t kTlsVersion = 0x0303;  // TLS 1.2 on the wire
inline constexpr std::size_t kRecordHeaderBytes = 5;
inline constexpr std::size_t kMaxPlaintextPerRecord = 16384;
/// AEAD tag appended to every protected record.
inline constexpr std::size_t kAeadTagBytes = 16;
/// Largest record body a receiver accepts (RFC 8446 §5.2: 2^14 + 256).
inline constexpr std::size_t kMaxCiphertextBytes = kMaxPlaintextPerRecord + 256;

/// The cleartext 5-byte record header. The version field is always written
/// as `kTlsVersion` and ignored on receipt (RFC 8446 §5.1), so it is not kept.
struct RecordHeader {
  ContentType type = ContentType::kApplicationData;
  std::uint16_t length = 0;  // bytes following the 5-byte header
};

/// Writes the 5-byte header of a record with a `length`-byte body to `out`.
void write_record_header(ContentType type, std::size_t length, std::uint8_t* out);

/// Serializes header + body into wire bytes (the header's length is the
/// body's size).
std::vector<std::uint8_t> serialize_record(const RecordHeader& h,
                                           std::span<const std::uint8_t> body);

/// One parsed record: its header and its body, borrowed from the parser.
struct RecordView {
  RecordHeader header;
  std::span<const std::uint8_t> body;
};

/// Incremental record-stream parser. Feed raw TCP bytes in order; records pop
/// out complete. Used both by the legitimate endpoints and by the adversary's
/// traffic monitor (which can parse headers because they are never encrypted).
class RecordParser {
 public:
  void feed(std::span<const std::uint8_t> bytes) { buf_.append(bytes); }

  /// Decodes the header at the front of the buffer without consuming it;
  /// false until all five header bytes are buffered. Lets a receiver reject
  /// a record by its header before the body arrives.
  bool peek_header(RecordHeader& out) const;

  /// Pops the next complete record, or nullopt. The body is a span into the
  /// parser's buffer, valid until the next feed(): nothing is copied.
  std::optional<RecordView> next();

  /// Bytes buffered but not yet forming a complete record.
  std::size_t pending_bytes() const { return buf_.size(); }

 private:
  sim::ByteQueue buf_;
};

}  // namespace h2sim::tls
