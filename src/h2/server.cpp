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

void ServerConnection::on_remote_headers(std::uint32_t stream_id,
                                         const hpack::HeaderList& headers,
                                         bool /*end_stream*/) {
  if (handlers_.on_request) handlers_.on_request(stream_id, headers);
}

}  // namespace h2sim::h2
