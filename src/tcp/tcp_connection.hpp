#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/byte_queue.hpp"
#include "sim/event_loop.hpp"
#include "tcp/reassembly.hpp"
#include "tcp/tcp_types.hpp"

namespace h2sim::tcp {

/// A single TCP connection endpoint: byte-stream delivery with slow start /
/// congestion avoidance, duplicate-ACK fast retransmit with NewReno-style
/// recovery, Jacobson/Karn RTT estimation, exponential RTO backoff and abort
/// after repeated timeouts. This is the substrate whose dynamics (dup-ACKs,
/// fast retransmits, resets) the paper's adversary provokes and exploits.
class TcpConnection {
 public:
  enum class State {
    kClosed,
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait1,
    kFinWait2,
    kCloseWait,
    kLastAck,
    kClosing,
    kTimeWait,
    kAborted,
  };

  struct Callbacks {
    std::function<void()> on_connected;
    std::function<void(std::span<const std::uint8_t>)> on_data;
    std::function<void()> on_remote_close;  // FIN received: clean EOF
    std::function<void(std::string_view reason)> on_aborted;
    /// Fired whenever an ACK frees send-buffer space; upper layers use it to
    /// resume writing after socket backpressure.
    std::function<void()> on_writable;
  };

  using SendFn = std::function<void(net::Packet&&)>;

  TcpConnection(sim::EventLoop& loop, const TcpConfig& cfg, net::NodeId local_node,
                net::Port local_port, net::NodeId remote_node, net::Port remote_port,
                SendFn send_fn, std::uint32_t initial_seq);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;
  ~TcpConnection();

  void set_callbacks(Callbacks cbs) { cbs_ = std::move(cbs); }

  /// Active open: sends SYN.
  void connect();

  /// Queues application bytes for in-order delivery to the peer.
  void send(std::span<const std::uint8_t> data);

  /// Graceful close: FIN after all queued data.
  void close();

  /// Hard abort: sends RST and tears down locally.
  void abort(std::string_view reason);

  /// Entry point for segments from the network (called by TcpStack).
  void handle_segment(const net::Packet& p);

  State state() const { return state_; }
  bool established() const { return state_ == State::kEstablished; }
  bool aborted() const { return state_ == State::kAborted; }
  bool fully_closed() const {
    return state_ == State::kTimeWait || state_ == State::kClosed ||
           state_ == State::kAborted;
  }
  net::NodeId local_node() const { return local_node_; }
  net::NodeId remote_node() const { return remote_node_; }
  net::Port local_port() const { return local_port_; }
  net::Port remote_port() const { return remote_port_; }
  std::size_t bytes_in_flight() const { return snd_nxt_ - snd_una_; }
  std::size_t unsent_bytes() const {
    return (buf_seq_ + static_cast<std::uint32_t>(send_buf_.size())) - snd_nxt_;
  }
  std::size_t cwnd() const { return cwnd_; }
  sim::Duration current_rto() const { return rto_; }
  /// Smoothed RTT estimate; zero until the first sample.
  sim::Duration srtt() const { return srtt_; }
  /// Transmitted segments not yet wholly acknowledged.
  std::size_t tracked_segments() const { return tx_records_.size() - tx_head_; }

 private:
  struct TxRecord {
    std::uint32_t key;  // tx_key() of the segment's first byte
    std::uint32_t end_seq;
    sim::TimePoint first_tx;
    int tx_count = 1;
  };

  void emit(std::uint8_t flags, std::uint32_t seq, std::size_t payload_len,
            bool retransmission);
  void send_ack();
  void try_send();
  void retransmit_from(std::uint32_t seq, const char* why, bool rto_driven);
  void handle_ack(const net::Packet& p);
  void handle_payload(const net::Packet& p);
  void on_new_ack(std::uint32_t ack, std::size_t newly_acked);
  /// The first live record whose key is not below `key`.
  std::vector<TxRecord>::iterator tx_lower_bound(std::uint32_t key);
  /// Drops the records `ack` wholly covers.
  void retire_tx(std::uint32_t ack);
  void enter_fast_retransmit();
  void arm_rto();
  void cancel_rto();
  void on_rto();
  void update_rtt(sim::Duration sample);
  void become(State s);
  void maybe_send_fin();

  sim::EventLoop& loop_;
  TcpConfig cfg_;
  net::NodeId local_node_;
  net::Port local_port_;
  net::NodeId remote_node_;
  net::Port remote_port_;
  SendFn send_fn_;
  Callbacks cbs_;

  State state_ = State::kClosed;

  // --- Sender ---
  std::uint32_t iss_;
  std::uint32_t snd_una_;
  std::uint32_t snd_nxt_;
  std::uint32_t buf_seq_;  // sequence number of the first unacked byte
  // Unacked + unsent stream bytes, contiguous, so segment emission copies
  // from one span and acking is O(1).
  sim::ByteQueue send_buf_;
  std::size_t cwnd_;
  std::size_t ssthresh_;
  std::size_t peer_wnd_ = 65535;
  int dupacks_ = 0;
  bool in_fast_recovery_ = false;
  std::uint32_t recover_ = 0;  // NewReno high-water mark
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  std::uint32_t fin_seq_ = 0;

  // Transmitted, not yet fully acked segments from tx_head_ on, sorted by
  // key, the start's offset from iss_ (sequence order: connections stay under
  // 4 GiB). A send appends, retransmitting an untracked start inserts in
  // order (rare), and an ACK retires records from the front, so the list
  // allocates nothing once its capacity has grown to the flight.
  std::vector<TxRecord> tx_records_;
  std::size_t tx_head_ = 0;
  std::uint32_t tx_key(std::uint32_t seq) const { return seq - iss_; }
  sim::Duration rto_;
  sim::Duration srtt_ = sim::Duration::zero();
  sim::Duration rttvar_ = sim::Duration::zero();
  bool have_rtt_sample_ = false;
  sim::TimerHandle rto_timer_;
  int consecutive_rto_ = 0;
  sim::TimePoint last_forward_progress_;

  // --- Receiver ---
  std::uint32_t irs_ = 0;
  std::uint32_t rcv_nxt_ = 0;
  // Segments received past a hole, drained in one ordered pass when it fills.
  ReorderQueue ooo_;
  std::optional<std::uint32_t> remote_fin_seq_;
  std::uint32_t last_ack_sent_ = 0;

  // The trial's counts of this connection's protocol events: handles into the
  // current obs::Context's registry, bound at construction, so increments
  // aggregate across every connection in the trial.
  struct Metrics {
    obs::Counter segments_sent;
    obs::Counter segments_received;
    obs::Counter retransmits_fast;
    obs::Counter retransmits_rto;
    obs::Counter rto_expirations;
    obs::Counter dup_acks_received;
    obs::Counter out_of_order_segments;
    obs::Counter connections_aborted;
    obs::Histogram cwnd_bytes;
  };
  Metrics metrics_;
  void trace_cwnd();
};

const char* to_string(TcpConnection::State s);

/// Trace pid for a TCP endpoint: node 1 is the client host, everything else
/// renders under the server track.
std::uint32_t trace_pid(net::NodeId node);

}  // namespace h2sim::tcp
