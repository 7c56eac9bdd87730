#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "h2/frame.hpp"
#include "h2/stream.hpp"
#include "hpack/decoder.hpp"
#include "hpack/encoder.hpp"
#include "obs/metrics.hpp"
#include "sim/event_loop.hpp"
#include "sim/random.hpp"
#include "tls/session.hpp"

namespace h2sim::h2 {

/// How the connection multiplexes queued DATA across streams — the exact
/// behaviour the paper's privacy argument rests on.
enum class SchedulerKind {
  /// One DATA quantum per ready stream, rotating: the "multi-threaded"
  /// HTTP/2 server of the paper. Fine-grained interleaving.
  kRoundRobin,
  /// Finish the lowest-id ready stream before any other: "multiplexing
  /// disabled" (the default-config servers the paper mentions in §V).
  kSequential,
  /// Uniform-random ready stream per quantum: the §VII "confuse the
  /// adversary" direction.
  kRandom,
  /// PRIORITY-weight-proportional quanta (RFC 7540 §5.3 weights): streams
  /// with higher weight win the quantum more often.
  kWeighted,
};

const char* to_string(SchedulerKind k);

struct ConnectionConfig {
  SchedulerKind scheduler = SchedulerKind::kRoundRobin;
  /// Max DATA payload written per scheduler quantum. Controls interleaving
  /// granularity: one quantum becomes one frame, one TLS record.
  std::size_t data_chunk_size = 2048;
  std::uint32_t max_frame_size = kDefaultMaxFrameSize;     // advertised
  std::uint32_t initial_window_size = 131072;              // advertised
  std::uint32_t max_concurrent_streams = 100;              // advertised
  bool enable_push = false;                                // advertised
  /// Extra connection-level window granted at startup (browsers grant
  /// megabytes so the connection window never throttles).
  std::uint32_t connection_window_bonus = 12 * 1024 * 1024;
  /// Stop writing DATA while the TCP send buffer holds more than this many
  /// unsent+unacked bytes (socket backpressure).
  std::size_t tcp_send_watermark = 512 * 1024;
  /// Connection-level WINDOW_UPDATE batching: credit the peer once this many
  /// bytes have been consumed (Firefox-like cadence). Smaller values emit
  /// chattier client traffic — the supply of payload packets the paper's
  /// fast-retransmit storms feed on.
  std::size_t window_update_batch = 32768;
};

struct ConnectionStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t data_frames_sent = 0;
  std::uint64_t data_bytes_sent = 0;
  std::uint64_t data_bytes_received = 0;
  std::uint64_t headers_frames_sent = 0;
  std::uint64_t rst_sent = 0;
  std::uint64_t rst_received = 0;
  std::uint64_t pings_sent = 0;
  std::uint64_t goaway_sent = 0;
  std::uint64_t push_promises_sent = 0;
  std::uint64_t streams_opened = 0;
};

/// Base HTTP/2 connection over a TlsSession: framing, settings negotiation,
/// HPACK, flow control, stream lifecycle and the multiplexing send scheduler.
/// ServerConnection / ClientConnection specialize the semantic layer.
class Connection {
 public:
  Connection(sim::EventLoop& loop, tls::TlsSession& tls, bool is_server,
             ConnectionConfig cfg, sim::Rng rng);
  virtual ~Connection() = default;

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Queues response/request body bytes on a stream; the scheduler decides
  /// when they reach the wire.
  void enqueue_data(std::uint32_t stream_id, std::span<const std::uint8_t> bytes,
                    bool end_stream);

  void send_headers(std::uint32_t stream_id, const hpack::HeaderList& headers,
                    bool end_stream);
  void send_rst_stream(std::uint32_t stream_id, ErrorCode code);
  void send_goaway(ErrorCode code, std::string debug = "");
  void send_ping();
  void send_priority(std::uint32_t stream_id, const PriorityPayload& p);

  Stream* find_stream(std::uint32_t id);
  bool ready() const { return handshake_done_; }
  bool dead() const { return dead_; }
  const ConnectionStats& stats() const { return stats_; }
  const ConnectionConfig& config() const { return cfg_; }
  sim::EventLoop& loop() { return loop_; }

  /// Number of streams currently holding queued data — the paper's "number
  /// of objects in the server queue".
  std::size_t streams_with_pending_data() const;

  /// Total bytes sitting in stream send queues.
  std::size_t pending_data_bytes() const;

  /// Observation hook invoked for every frame written, in wire order. Used
  /// by the experiment harness to build the ground-truth wire log (each
  /// frame becomes exactly one TLS record).
  void set_frame_tap(std::function<void(const Frame&, sim::TimePoint)> tap) {
    frame_tap_ = std::move(tap);
  }

 protected:
  // --- Hooks for the semantic layer ---
  virtual void on_remote_headers(std::uint32_t stream_id,
                                 const hpack::HeaderList& headers,
                                 bool end_stream) = 0;
  virtual void on_remote_data(std::uint32_t stream_id,
                              std::span<const std::uint8_t> bytes,
                              bool end_stream) = 0;
  virtual void on_remote_rst(std::uint32_t stream_id, ErrorCode code) = 0;
  virtual void on_remote_goaway(const GoawayPayload&) {}
  virtual void on_remote_push_promise(std::uint32_t /*parent*/,
                                      std::uint32_t /*promised*/,
                                      const hpack::HeaderList&) {}
  virtual void on_ready() {}  // settings handshake complete
  virtual void on_dead(std::string_view /*reason*/) {}

  Stream& create_stream(std::uint32_t id);
  void destroy_stream_if_closed(std::uint32_t id);
  /// Shared per-connection HPACK encode context (HEADERS and PUSH_PROMISE
  /// must use the same dynamic table).
  hpack::Encoder& header_encoder() { return hpack_encoder_; }
  void connection_error(ErrorCode code, const std::string& msg);
  void write_frame(Frame&& f);
  void pump();

  sim::EventLoop& loop_;
  tls::TlsSession& tls_;
  const bool is_server_;
  ConnectionConfig cfg_;
  sim::Rng rng_;

  std::map<std::uint32_t, std::unique_ptr<Stream>> streams_;
  std::uint32_t last_stream_id_ = 0;  // one-entry find_stream cache
  Stream* last_stream_ = nullptr;
  std::uint32_t highest_remote_stream_ = 0;
  std::uint32_t next_local_stream_;
  bool handshake_done_ = false;
  bool preface_received_ = false;
  bool dead_ = false;
  std::optional<std::uint32_t> goaway_last_stream_;  // set when GOAWAY received

  // Peer settings as currently applied to our sending side.
  std::uint32_t peer_max_frame_size_ = kDefaultMaxFrameSize;
  std::int64_t peer_initial_window_ = kDefaultInitialWindow;
  std::uint32_t peer_max_concurrent_ = 0xffffffff;
  bool peer_push_enabled_ = true;

  FlowWindow conn_send_window_{kDefaultInitialWindow};
  FlowWindow conn_recv_window_{kDefaultInitialWindow};
  std::int64_t conn_recv_consumed_ = 0;

  ConnectionStats stats_;

 private:
  void on_tls_established();
  void on_plaintext(std::span<const std::uint8_t> bytes);
  void handle_frame(Frame&& f);
  void handle_data(const Frame& f);
  void handle_headers(Frame&& f);
  void handle_continuation(Frame&& f);
  void finish_header_block(std::uint32_t stream_id, bool end_stream,
                           bool is_push_promise, std::uint32_t promised_id);
  void handle_settings(const Frame& f);
  void handle_rst(const Frame& f);
  void handle_window_update(const Frame& f);
  void handle_ping(const Frame& f);
  void handle_goaway(const Frame& f);
  void handle_priority(const Frame& f);
  void handle_push_promise(Frame&& f);
  void send_initial_settings();
  std::uint32_t pick_ready_stream();
  void replenish_recv_windows(std::uint32_t stream_id, std::size_t consumed);

  FrameDecoder decoder_;
  hpack::Encoder hpack_encoder_;
  hpack::Decoder hpack_decoder_;
  std::vector<std::uint8_t> preface_buffer_;

  // CONTINUATION reassembly state.
  bool assembling_headers_ = false;
  std::uint32_t assembling_stream_ = 0;
  bool assembling_end_stream_ = false;
  bool assembling_is_push_ = false;
  std::uint32_t assembling_promised_ = 0;
  std::vector<std::uint8_t> header_block_;

  std::vector<std::uint32_t> rr_order_;  // round-robin rotation state
  std::function<void(const Frame&, sim::TimePoint)> frame_tap_;

  // Process-wide observability handles (aggregate across connections).
  struct Metrics {
    obs::Counter frames_sent;
    obs::Counter frames_received;
    obs::Counter data_bytes_sent;
    obs::Counter rst_sent;
    obs::Counter rst_received;
    obs::Counter streams_opened;
    obs::Counter flow_stalls;
  };
  Metrics metrics_;
  /// Emits a stream state-transition instant when `before` differs from the
  /// stream's current state (call after any state-changing operation).
  void trace_stream_state(std::uint32_t stream_id, StreamState before);

 protected:
  std::uint32_t next_promised_stream_ = 2;  // server push ids (even)
};

}  // namespace h2sim::h2
