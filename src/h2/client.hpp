#pragma once

#include <functional>

#include "h2/connection.hpp"

namespace h2sim::h2 {

/// Client side of an HTTP/2 connection: opens request streams and surfaces
/// response events to the browser model.
class ClientConnection : public Connection {
 public:
  struct Handlers {
    std::function<void()> on_ready;  // settings sent; requests may flow
    std::function<void(std::uint32_t stream_id, const hpack::HeaderList&)>
        on_response_headers;
    std::function<void(std::uint32_t stream_id, std::span<const std::uint8_t>,
                       bool end_stream)>
        on_response_data;
    std::function<void(std::uint32_t stream_id, ErrorCode)> on_reset;
    std::function<void(std::string_view reason)> on_connection_dead;
    std::function<void(const GoawayPayload&)> on_goaway;
  };

  ClientConnection(sim::EventLoop& loop, tls::TlsSession& tls,
                   ConnectionConfig cfg, sim::Rng rng)
      : Connection(loop, tls, /*is_server=*/false, cfg, rng) {}

  void set_handlers(Handlers h) { handlers_ = std::move(h); }

  /// Opens a new stream carrying a bodyless request (END_STREAM on HEADERS).
  /// Returns the stream id.
  std::uint32_t send_request(const hpack::HeaderList& headers);

  /// RST_STREAM for a pending request (the paper's reset-stream mechanic).
  void cancel(std::uint32_t stream_id, ErrorCode code = ErrorCode::kCancel) {
    send_rst_stream(stream_id, code);
  }

 protected:
  void on_ready() override {
    if (handlers_.on_ready) handlers_.on_ready();
  }
  void on_remote_headers(std::uint32_t stream_id, const hpack::HeaderList& headers,
                         bool /*end_stream*/) override {
    if (handlers_.on_response_headers) {
      handlers_.on_response_headers(stream_id, headers);
    }
  }
  void on_remote_data(std::uint32_t stream_id, std::span<const std::uint8_t> bytes,
                      bool end_stream) override {
    if (handlers_.on_response_data) {
      handlers_.on_response_data(stream_id, bytes, end_stream);
    }
  }
  void on_stream_reset(std::uint32_t stream_id, ErrorCode code) override {
    if (handlers_.on_reset) handlers_.on_reset(stream_id, code);
  }
  void on_remote_goaway(const GoawayPayload& g) override {
    if (handlers_.on_goaway) handlers_.on_goaway(g);
  }
  void on_dead(std::string_view reason) override {
    if (handlers_.on_connection_dead) handlers_.on_connection_dead(reason);
  }

 private:
  Handlers handlers_;
};

}  // namespace h2sim::h2
