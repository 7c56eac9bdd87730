#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/byte_queue.hpp"

namespace h2sim::h2 {

/// RFC 7540 §6 frame types.
enum class FrameType : std::uint8_t {
  kData = 0x0,
  kHeaders = 0x1,
  kPriority = 0x2,
  kRstStream = 0x3,
  kSettings = 0x4,
  kPushPromise = 0x5,
  kPing = 0x6,
  kGoaway = 0x7,
  kWindowUpdate = 0x8,
  kContinuation = 0x9,
};

const char* to_string(FrameType t);

/// RFC 7540 §7 error codes.
enum class ErrorCode : std::uint32_t {
  kNoError = 0x0,
  kProtocolError = 0x1,
  kInternalError = 0x2,
  kFlowControlError = 0x3,
  kSettingsTimeout = 0x4,
  kStreamClosed = 0x5,
  kFrameSizeError = 0x6,
  kRefusedStream = 0x7,
  kCancel = 0x8,
  kCompressionError = 0x9,
  kConnectError = 0xa,
  kEnhanceYourCalm = 0xb,
  kInadequateSecurity = 0xc,
  kHttp11Required = 0xd,
};

const char* to_string(ErrorCode e);

namespace flags {
inline constexpr std::uint8_t kEndStream = 0x1;   // DATA, HEADERS
inline constexpr std::uint8_t kAck = 0x1;         // SETTINGS, PING
inline constexpr std::uint8_t kEndHeaders = 0x4;  // HEADERS, CONTINUATION
inline constexpr std::uint8_t kPadded = 0x8;
inline constexpr std::uint8_t kPriority = 0x20;
}  // namespace flags

inline constexpr std::size_t kFrameHeaderBytes = 9;
inline constexpr std::size_t kDefaultMaxFrameSize = 16384;
inline constexpr std::size_t kMaxAllowedFrameSize = (1u << 24) - 1;

/// RFC 7540 §11.3 settings identifiers.
enum class SettingId : std::uint16_t {
  kHeaderTableSize = 0x1,
  kEnablePush = 0x2,
  kMaxConcurrentStreams = 0x3,
  kInitialWindowSize = 0x4,
  kMaxFrameSize = 0x5,
  kMaxHeaderListSize = 0x6,
};

struct SettingsEntry {
  SettingId id;
  std::uint32_t value;
};

/// One HTTP/2 frame: the 9-byte header's fields and a payload borrowed from
/// whoever made the view (a stream's send queue, the decoder's buffer, a
/// caller's array). It owns nothing, so the payload is valid only as long as
/// that storage is; see FrameDecoder::next() and Stream::take().
struct FrameView {
  FrameType type = FrameType::kData;
  std::uint8_t flags = 0;
  std::uint32_t stream_id = 0;  // 31 bits; high bit reserved
  std::span<const std::uint8_t> payload;

  bool has_flag(std::uint8_t f) const { return (flags & f) != 0; }
  std::size_t wire_size() const { return kFrameHeaderBytes + payload.size(); }
};

/// Writes the 9-byte header of `f` to `out`, with the reserved bit cleared.
void write_frame_header(const FrameView& f, std::uint8_t* out);

/// The header and payload of `f` as one wire buffer.
std::vector<std::uint8_t> serialize_frame(const FrameView& f);

/// The payload of a DATA or HEADERS frame without its padding (RFC 7540
/// §6.1, §6.2): with the PADDED flag set, the Pad Length byte
/// and the padding it names are cut off. nullopt when the padding reaches the
/// end of the payload, a PROTOCOL_ERROR connection error.
std::optional<std::span<const std::uint8_t>> unpadded_payload(const FrameView& f);

/// Incremental frame decoder over an in-order byte stream: a flat buffer with
/// a consumed-prefix offset.
class FrameDecoder {
 public:
  void set_max_frame_size(std::size_t n) { max_frame_size_ = n; }
  void feed(std::span<const std::uint8_t> bytes) { buf_.append(bytes); }

  /// Next complete frame, or nullopt. The payload is borrowed from the
  /// decoder's buffer and stays valid until the next feed(). A length over
  /// the maximum frame size is refused from the 9-byte header alone: error()
  /// is set and no further frames are produced (FRAME_SIZE_ERROR connection
  /// error per §4.2).
  std::optional<FrameView> next();
  bool error() const { return error_; }

  /// Bytes of buffer storage in use, the consumed prefix included.
  std::size_t storage_bytes() const { return buf_.storage_bytes(); }

 private:
  sim::ByteQueue buf_;
  std::size_t max_frame_size_ = kDefaultMaxFrameSize;
  bool error_ = false;
};

// --- Typed payload helpers ---

std::vector<std::uint8_t> encode_settings(std::span<const SettingsEntry> entries);
std::optional<std::vector<SettingsEntry>> parse_settings(
    std::span<const std::uint8_t> payload);

// Control frames with fixed-size payloads encode into arrays: sending one
// touches no heap.
std::array<std::uint8_t, 4> encode_rst_stream(ErrorCode code);
std::optional<ErrorCode> parse_rst_stream(std::span<const std::uint8_t> payload);

std::array<std::uint8_t, 4> encode_window_update(std::uint32_t increment);
std::optional<std::uint32_t> parse_window_update(std::span<const std::uint8_t> payload);

struct GoawayPayload {
  std::uint32_t last_stream_id = 0;
  ErrorCode error = ErrorCode::kNoError;
  std::string debug;
};
std::vector<std::uint8_t> encode_goaway(const GoawayPayload& g);
std::optional<GoawayPayload> parse_goaway(std::span<const std::uint8_t> payload);

struct PriorityPayload {
  std::uint32_t dependency = 0;
  bool exclusive = false;
  std::uint8_t weight = 16;  // wire value + 1
};
std::vector<std::uint8_t> encode_priority(const PriorityPayload& p);
std::optional<PriorityPayload> parse_priority(std::span<const std::uint8_t> payload);

/// The 24-byte client connection preface (§3.5).
std::span<const std::uint8_t> client_preface();

}  // namespace h2sim::h2
