#pragma once

#include <functional>
#include <string>
#include <vector>

#include "h2/connection.hpp"

namespace h2sim::h2 {

/// Server side of an HTTP/2 connection: surfaces requests to the application
/// and provides response emission (headers, body chunks).
class ServerConnection : public Connection {
 public:
  struct Handlers {
    /// A complete request header block arrived (our workloads are GETs with
    /// no body, so this is the whole request).
    std::function<void(std::uint32_t stream_id, const hpack::HeaderList&)>
        on_request;
    /// The peer reset a stream, or the connection did on a stream error:
    /// the application must stop producing body chunks for it (its queue
    /// has already been flushed).
    std::function<void(std::uint32_t stream_id, ErrorCode)> on_stream_reset;
    std::function<void(std::string_view reason)> on_connection_dead;
  };

  ServerConnection(sim::EventLoop& loop, tls::TlsSession& tls,
                   ConnectionConfig cfg, sim::Rng rng)
      : Connection(loop, tls, /*is_server=*/true, cfg, rng) {}

  void set_handlers(Handlers h) { handlers_ = std::move(h); }

  /// Sends response HEADERS with :status plus extras.
  void respond_headers(std::uint32_t stream_id, int status,
                       const hpack::HeaderList& extra = {},
                       bool end_stream = false);

  /// Queues one body chunk; the multiplexing scheduler owns wire timing.
  /// The chunk is borrowed under enqueue_data's contract: it stays valid
  /// until it has been sent or the stream is reset.
  void send_body_chunk(std::uint32_t stream_id,
                       std::span<const std::uint8_t> bytes, bool end_stream) {
    enqueue_data(stream_id, bytes, end_stream);
  }
  /// A temporary body would be gone before the scheduler sends it.
  void send_body_chunk(std::uint32_t, std::vector<std::uint8_t>&&, bool) = delete;

 protected:
  void on_remote_headers(std::uint32_t stream_id, const hpack::HeaderList& headers,
                         bool end_stream) override;
  void on_remote_data(std::uint32_t, std::span<const std::uint8_t>,
                      bool) override {}
  void on_stream_reset(std::uint32_t stream_id, ErrorCode code) override {
    if (handlers_.on_stream_reset) handlers_.on_stream_reset(stream_id, code);
  }
  void on_dead(std::string_view reason) override {
    if (handlers_.on_connection_dead) handlers_.on_connection_dead(reason);
  }

 private:
  Handlers handlers_;
};

}  // namespace h2sim::h2
