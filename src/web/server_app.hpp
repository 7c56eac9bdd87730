#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "defense/policy.hpp"
#include "h2/server.hpp"
#include "sim/random.hpp"
#include "web/website.hpp"

namespace h2sim::web {

/// The settable part of the server-application timing model: how the
/// "threads" of the paper's Figure 3 produce object segments into the
/// stream queues. The chunk size and pacing are constants in server_app.cpp.
struct ServerAppConfig {
  /// Per-connection service-speed factor range (server load varies between
  /// downloads); drawn once per connection, multiplies every interval.
  double speed_factor_lo = 0.55;
  double speed_factor_hi = 1.45;
  /// Single-threaded server: one response worker at a time, requests queued
  /// FIFO (the "multiplexing disabled by default" HTTP/2 deployments of
  /// Section V).
  bool serial_workers = false;
};

/// Binds a Website to an HTTP/2 ServerConnection: every request spawns a
/// worker that paces response chunks into the stream queue. RST_STREAM
/// cancels the worker (and the connection has already flushed the queue) —
/// the paper's Figure 6 server behaviour.
///
/// `padding` is the deployed wire-level padding (none = undefended): every
/// 200 response advertises and serves padding.padded_size(obj->size) body
/// bytes, the plaintext object followed by filler, all riding genuine DATA
/// frames.
///
/// The stream queue borrows the chunks (ServerConnection::send_body_chunk),
/// so every served body outlives its stream's references to it. An unpadded
/// serving is served straight from `site.body(*obj)` (the Website outlives
/// the trial). A padded serving gets its whole body built once, from the
/// site's pattern, into a buffer the app owns until the stream is reset or
/// has sent it.
class ServerApp {
 public:
  ServerApp(sim::EventLoop& loop, const Website& site, h2::ServerConnection& conn,
            sim::Rng rng, defense::PaddingSpec padding, ServerAppConfig cfg = {});

  /// Object label served on each stream (ground truth for the evaluator;
  /// includes streams serving duplicate copies after client reissues).
  const std::map<std::uint32_t, std::string>& stream_objects() const {
    return stream_objects_;
  }

  /// Whether a worker is still producing `stream_id`'s body.
  bool producing(std::uint32_t stream_id) const {
    return workers_.contains(stream_id);
  }

 private:
  struct Worker {
    const WebObject* obj = nullptr;
    /// The served bytes, obj->size plus padding: site_.body(*obj) or a
    /// body in built_bodies_.
    std::span<const std::uint8_t> body;
    std::size_t produced = 0;
    sim::TimerHandle timer;
  };
  struct PendingRequest {
    std::uint32_t stream_id = 0;
    const WebObject* obj = nullptr;
    std::size_t wire_size = 0;
  };

  void handle_request(std::uint32_t stream_id, const hpack::HeaderList& headers);
  void produce_chunk(std::uint32_t stream_id);
  sim::Duration jittered(sim::Duration base);

  sim::EventLoop& loop_;
  const Website& site_;
  h2::ServerConnection& conn_;
  sim::Rng rng_;
  defense::PaddingSpec padding_;
  ServerAppConfig cfg_;

  void start_worker(std::uint32_t stream_id, const WebObject* obj,
                    std::size_t wire_size);
  void start_next_queued();
  /// The `wire_size` bytes served for `obj` on `stream_id`.
  std::span<const std::uint8_t> served_body(std::uint32_t stream_id,
                                            const WebObject& obj,
                                            std::size_t wire_size);
  /// Frees the built bodies no stream can reference any more.
  void release_sent_bodies();

  double speed_factor_ = 1.0;
  /// Dedicated stream for padding draws, split off rng_ only when the
  /// padding is not deterministic — undefended and
  /// deterministically-defended trials keep the historical rng_ sequence
  /// bit-for-bit.
  sim::Rng pad_rng_{0};
  std::map<std::uint32_t, Worker> workers_;
  /// Bodies built by served_body(), by stream id.
  std::map<std::uint32_t, std::vector<std::uint8_t>> built_bodies_;
  std::deque<PendingRequest> pending_;  // serial mode
  std::map<std::uint32_t, std::string> stream_objects_;
};

}  // namespace h2sim::web
