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

bool RecordParser::peek_header(RecordHeader& out) const {
  if (pending_bytes() < kRecordHeaderBytes) return false;
  const std::uint8_t* p = buf_.bytes().data();
  out.type = static_cast<ContentType>(p[0]);
  out.length = static_cast<std::uint16_t>(p[3] << 8 | p[4]);
  return true;
}

std::optional<RecordView> RecordParser::next() {
  RecordView rec;
  if (!peek_header(rec.header) ||
      pending_bytes() < kRecordHeaderBytes + rec.header.length) {
    return std::nullopt;
  }
  rec.body = buf_.bytes().subspan(kRecordHeaderBytes, rec.header.length);
  buf_.consume(kRecordHeaderBytes + rec.header.length);
  return rec;
}

}  // namespace h2sim::tls
