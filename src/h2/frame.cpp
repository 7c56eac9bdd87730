#include "h2/frame.hpp"

namespace h2sim::h2 {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void store_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  std::uint8_t b[4];
  store_u32(b, v);
  out.insert(out.end(), b, b + 4);
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t pos) {
  return static_cast<std::uint32_t>(in[pos]) << 24 |
         static_cast<std::uint32_t>(in[pos + 1]) << 16 |
         static_cast<std::uint32_t>(in[pos + 2]) << 8 |
         static_cast<std::uint32_t>(in[pos + 3]);
}

}  // namespace

const char* to_string(FrameType t) {
  switch (t) {
    case FrameType::kData: return "DATA";
    case FrameType::kHeaders: return "HEADERS";
    case FrameType::kPriority: return "PRIORITY";
    case FrameType::kRstStream: return "RST_STREAM";
    case FrameType::kSettings: return "SETTINGS";
    case FrameType::kPushPromise: return "PUSH_PROMISE";
    case FrameType::kPing: return "PING";
    case FrameType::kGoaway: return "GOAWAY";
    case FrameType::kWindowUpdate: return "WINDOW_UPDATE";
    case FrameType::kContinuation: return "CONTINUATION";
  }
  return "UNKNOWN";
}

const char* to_string(ErrorCode e) {
  switch (e) {
    case ErrorCode::kNoError: return "NO_ERROR";
    case ErrorCode::kProtocolError: return "PROTOCOL_ERROR";
    case ErrorCode::kInternalError: return "INTERNAL_ERROR";
    case ErrorCode::kFlowControlError: return "FLOW_CONTROL_ERROR";
    case ErrorCode::kSettingsTimeout: return "SETTINGS_TIMEOUT";
    case ErrorCode::kStreamClosed: return "STREAM_CLOSED";
    case ErrorCode::kFrameSizeError: return "FRAME_SIZE_ERROR";
    case ErrorCode::kRefusedStream: return "REFUSED_STREAM";
    case ErrorCode::kCancel: return "CANCEL";
    case ErrorCode::kCompressionError: return "COMPRESSION_ERROR";
    case ErrorCode::kConnectError: return "CONNECT_ERROR";
    case ErrorCode::kEnhanceYourCalm: return "ENHANCE_YOUR_CALM";
    case ErrorCode::kInadequateSecurity: return "INADEQUATE_SECURITY";
    case ErrorCode::kHttp11Required: return "HTTP_1_1_REQUIRED";
  }
  return "UNKNOWN";
}

void write_frame_header(const FrameView& f, std::uint8_t* out) {
  const std::size_t len = f.payload.size();
  out[0] = static_cast<std::uint8_t>(len >> 16);
  out[1] = static_cast<std::uint8_t>(len >> 8);
  out[2] = static_cast<std::uint8_t>(len);
  out[3] = static_cast<std::uint8_t>(f.type);
  out[4] = f.flags;
  store_u32(out + 5, f.stream_id & 0x7fffffff);
}

std::vector<std::uint8_t> serialize_frame(const FrameView& f) {
  std::vector<std::uint8_t> out(kFrameHeaderBytes);
  write_frame_header(f, out.data());
  out.insert(out.end(), f.payload.begin(), f.payload.end());
  return out;
}

std::optional<std::span<const std::uint8_t>> unpadded_payload(const FrameView& f) {
  if (!f.has_flag(flags::kPadded)) return f.payload;
  if (f.payload.empty() || f.payload[0] >= f.payload.size()) return std::nullopt;
  return f.payload.subspan(1, f.payload.size() - 1 - f.payload[0]);
}

std::optional<FrameView> FrameDecoder::next() {
  if (error_ || buf_.size() < kFrameHeaderBytes) return std::nullopt;
  const std::span<const std::uint8_t> b = buf_.bytes();
  const std::size_t len = static_cast<std::size_t>(b[0]) << 16 |
                          static_cast<std::size_t>(b[1]) << 8 | b[2];
  if (len > max_frame_size_) {
    error_ = true;
    return std::nullopt;
  }
  if (b.size() < kFrameHeaderBytes + len) return std::nullopt;

  FrameView f;
  f.type = static_cast<FrameType>(b[3]);
  f.flags = b[4];
  f.stream_id = get_u32(b, 5) & 0x7fffffff;
  f.payload = b.subspan(kFrameHeaderBytes, len);
  buf_.consume(kFrameHeaderBytes + len);
  return f;
}

std::vector<std::uint8_t> encode_settings(std::span<const SettingsEntry> entries) {
  std::vector<std::uint8_t> out;
  out.reserve(entries.size() * 6);
  for (const auto& e : entries) {
    put_u16(out, static_cast<std::uint16_t>(e.id));
    put_u32(out, e.value);
  }
  return out;
}

std::optional<std::vector<SettingsEntry>> parse_settings(
    std::span<const std::uint8_t> payload) {
  if (payload.size() % 6 != 0) return std::nullopt;
  std::vector<SettingsEntry> out;
  for (std::size_t i = 0; i < payload.size(); i += 6) {
    SettingsEntry e;
    e.id = static_cast<SettingId>(static_cast<std::uint16_t>(payload[i]) << 8 |
                                  payload[i + 1]);
    e.value = get_u32(payload, i + 2);
    out.push_back(e);
  }
  return out;
}

std::array<std::uint8_t, 4> encode_rst_stream(ErrorCode code) {
  std::array<std::uint8_t, 4> out;
  store_u32(out.data(), static_cast<std::uint32_t>(code));
  return out;
}

std::optional<ErrorCode> parse_rst_stream(std::span<const std::uint8_t> payload) {
  if (payload.size() != 4) return std::nullopt;
  return static_cast<ErrorCode>(get_u32(payload, 0));
}

std::array<std::uint8_t, 4> encode_window_update(std::uint32_t increment) {
  std::array<std::uint8_t, 4> out;
  store_u32(out.data(), increment & 0x7fffffff);
  return out;
}

std::optional<std::uint32_t> parse_window_update(
    std::span<const std::uint8_t> payload) {
  if (payload.size() != 4) return std::nullopt;
  return get_u32(payload, 0) & 0x7fffffff;
}

std::vector<std::uint8_t> encode_goaway(const GoawayPayload& g) {
  std::vector<std::uint8_t> out;
  put_u32(out, g.last_stream_id & 0x7fffffff);
  put_u32(out, static_cast<std::uint32_t>(g.error));
  out.insert(out.end(), g.debug.begin(), g.debug.end());
  return out;
}

std::optional<GoawayPayload> parse_goaway(std::span<const std::uint8_t> payload) {
  if (payload.size() < 8) return std::nullopt;
  GoawayPayload g;
  g.last_stream_id = get_u32(payload, 0) & 0x7fffffff;
  g.error = static_cast<ErrorCode>(get_u32(payload, 4));
  g.debug.assign(payload.begin() + 8, payload.end());
  return g;
}

std::vector<std::uint8_t> encode_priority(const PriorityPayload& p) {
  std::vector<std::uint8_t> out;
  put_u32(out, (p.dependency & 0x7fffffff) | (p.exclusive ? 0x80000000u : 0));
  out.push_back(static_cast<std::uint8_t>(p.weight - 1));
  return out;
}

std::optional<PriorityPayload> parse_priority(std::span<const std::uint8_t> payload) {
  if (payload.size() != 5) return std::nullopt;
  PriorityPayload p;
  const std::uint32_t dep = get_u32(payload, 0);
  p.exclusive = (dep & 0x80000000u) != 0;
  p.dependency = dep & 0x7fffffff;
  p.weight = static_cast<std::uint8_t>(payload[4] + 1);
  return p;
}

std::span<const std::uint8_t> client_preface() {
  static const std::uint8_t kPreface[] = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n";
  return {kPreface, 24};
}

}  // namespace h2sim::h2
