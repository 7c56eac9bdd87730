#include "h2/server.hpp"

namespace h2sim::h2 {

void ServerConnection::respond_headers(std::uint32_t stream_id, int status,
                                       const hpack::HeaderList& extra,
                                       bool end_stream) {
  hpack::HeaderList headers;
  headers.push_back({":status", std::to_string(status)});
  headers.insert(headers.end(), extra.begin(), extra.end());
  send_headers(stream_id, headers, end_stream);
}

std::uint32_t ServerConnection::push(std::uint32_t parent,
                                     const hpack::HeaderList& request_headers) {
  if (!peer_push_enabled_) return 0;
  Stream* parent_stream = find_stream(parent);
  if (!parent_stream) return 0;

  const std::uint32_t promised = next_promised_stream_;
  next_promised_stream_ += 2;
  Stream& s = create_stream(promised);
  s.on_send_push_promise();

  // PUSH_PROMISE carries a header block through the same HPACK context as
  // HEADERS frames.
  const std::vector<std::uint8_t> block = header_encoder().encode(request_headers);
  const std::vector<std::uint8_t> payload = encode_push_promise(promised, block);
  write_frame({FrameType::kPushPromise, flags::kEndHeaders, parent, payload});
  return promised;
}

void ServerConnection::on_remote_headers(std::uint32_t stream_id,
                                         const hpack::HeaderList& headers,
                                         bool /*end_stream*/) {
  if (handlers_.on_request) handlers_.on_request(stream_id, headers);
}

}  // namespace h2sim::h2
