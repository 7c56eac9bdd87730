#include "tls/record.hpp"

namespace h2sim::tls {

void write_record_header(ContentType type, std::size_t length, std::uint8_t* out) {
  out[0] = static_cast<std::uint8_t>(type);
  out[1] = static_cast<std::uint8_t>(kTlsVersion >> 8);
  out[2] = static_cast<std::uint8_t>(kTlsVersion & 0xff);
  out[3] = static_cast<std::uint8_t>(length >> 8);
  out[4] = static_cast<std::uint8_t>(length & 0xff);
}

std::vector<std::uint8_t> serialize_record(const RecordHeader& h,
                                           std::span<const std::uint8_t> body) {
  std::vector<std::uint8_t> out(kRecordHeaderBytes);
  write_record_header(h.type, body.size(), out.data());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

void RecordParser::feed(std::span<const std::uint8_t> bytes) {
  if (head_ == buf_.size()) {
    buf_.clear();
    head_ = 0;
  } else if (head_ >= 4096 && head_ >= buf_.size() - head_) {
    // Reclaim the consumed prefix once it dominates the buffer, so the
    // buffer never grows unbounded across a long connection.
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

bool RecordParser::peek_header(RecordHeader& out) const {
  if (pending_bytes() < kRecordHeaderBytes) return false;
  const std::uint8_t* p = buf_.data() + head_;
  out.type = static_cast<ContentType>(p[0]);
  out.length = static_cast<std::uint16_t>(p[3] << 8 | p[4]);
  return true;
}

bool RecordParser::next_header(RecordHeader& out) {
  RecordHeader h;
  if (!peek_header(h) || pending_bytes() < kRecordHeaderBytes + h.length) {
    return false;
  }
  head_ += kRecordHeaderBytes + h.length;
  out = h;
  return true;
}

bool RecordParser::next(Record& out) {
  const std::size_t start = head_;
  if (!next_header(out.header)) return false;
  const std::uint8_t* body = buf_.data() + start + kRecordHeaderBytes;
  out.body.assign(body, body + out.header.length);
  return true;
}

}  // namespace h2sim::tls
