#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "tcp/tcp_connection.hpp"
#include "tls/record.hpp"

namespace h2sim::tls {

/// The deterministic keystream word for absolute word counter `counter` in
/// the direction keyed by `dir_key` — both endpoints derive it identically.
std::uint64_t keystream_word(std::uint64_t dir_key, std::uint64_t counter);

/// XORs the deterministic keystream over [src, src+n) into dst, starting at
/// absolute keystream offset `stream_off`; `dst` may equal `src`. Word-at-a-time with a 4-wide
/// unrolled middle on the aligned body; bit-identical to the bytewise
/// definition. A free function (no session state) so bench_micro can measure
/// the record-protection inner loop on the real code.
void apply_keystream(std::uint64_t key, std::uint64_t stream_off,
                     const std::uint8_t* src, std::uint8_t* dst,
                     std::size_t n);

/// Simulated TLS session over a TcpConnection.
///
/// Fidelity notes (documented substitution, see DESIGN.md): the handshake is
/// a fixed-shape record exchange with realistic sizes, and record protection
/// stands in for an AEAD. This is NOT cryptography — it exists so that
/// records carry the authentic +21-byte overhead the paper's size
/// side-channel sees, and so that a 16-byte keyed checksum detects any
/// byte-stream corruption, turning the TLS layer into a running integrity
/// check on the TCP implementation underneath.
///
/// Every ApplicationData record carries a 16-byte tag: a keyed 4-lane
/// checksum of its plaintext, computed while the plaintext is copied into the
/// record. Record protection has two modes, fixed at construction, that
/// differ only in the body:
/// - `kFull`: the keystream is XORed over the body, so payload bytes on the
///   wire differ from the plaintext. The receiver decrypts into a scratch
///   buffer, then verifies the tag.
/// - `kElided`: the body is the plaintext. The receiver verifies the tag
///   and delivers the record body in place.
/// Headers and tags are byte-identical in both modes, and so are record
/// sizes, types and timing — all the adversary reads. A trial runs `kFull`
/// when it has a capture session (the only place ciphertext bytes can be
/// seen) and `kElided` otherwise; sessions built outside a trial default to
/// `kFull`. Both peers of a connection must use the same mode. A session keeps no state outside
/// itself, so nothing outlives the trial it belongs to.
///
/// The receiver aborts on a tag mismatch ("tls-bad-record-mac"), on an
/// unknown content type ("tls-unexpected-message") and on a header whose
/// length exceeds `kMaxCiphertextBytes` ("tls-record-overflow"), the
/// latter before buffering the body.
class TlsSession {
 public:
  enum class Role { kClient, kServer };
  enum class Protection { kFull, kElided };

  struct Callbacks {
    std::function<void()> on_established;
    std::function<void(std::span<const std::uint8_t>)> on_plaintext;
    std::function<void()> on_peer_close;
    std::function<void(std::string_view reason)> on_aborted;
    /// Forwarded TCP send-buffer-drained signal (socket backpressure).
    std::function<void()> on_writable;
  };

  /// Installs itself as the TCP connection's callback owner. The connection
  /// must outlive the session.
  TlsSession(tcp::TcpConnection& conn, Role role,
             Protection protection = Protection::kFull);

  TlsSession(const TlsSession&) = delete;
  TlsSession& operator=(const TlsSession&) = delete;

  void set_callbacks(Callbacks cbs) { cbs_ = std::move(cbs); }

  /// Client only: begins the handshake once TCP connects (automatic if TCP
  /// is already established).
  void start();

  bool established() const { return established_; }

  /// Protects and sends application plaintext. Each call produces one record
  /// per `kMaxPlaintextPerRecord` chunk; callers control record boundaries by
  /// the granularity of their writes (HTTP/2 writes one frame per call, so
  /// frame sizes are visible as record sizes — exactly the side channel the
  /// paper studies).
  void write(std::span<const std::uint8_t> plaintext);

  /// Graceful close (close_notify alert + TCP FIN).
  void close();

  tcp::TcpConnection& connection() { return conn_; }

  std::uint64_t records_sent() const { return records_sent_; }

 private:
  void on_tcp_connected();
  void on_tcp_data(std::span<const std::uint8_t> bytes);
  void handle_record(const RecordView& rec);
  void handle_handshake_record();
  /// Sizes `wire_scratch_` for one record, writes its header and returns
  /// where the `body_len`-byte body goes.
  std::uint8_t* begin_record(ContentType type, std::size_t body_len);
  /// Sends a cleartext (handshake or alert) record.
  void send_record(ContentType type, std::span<const std::uint8_t> body);
  /// Protects one plaintext chunk and sends it as a single ApplicationData
  /// record, writing the protected body and its tag in place after the
  /// header.
  void send_protected(std::span<const std::uint8_t> plaintext);
  void send_handshake_flight(std::size_t size);
  /// Recovers `body`'s plaintext — decrypted into `plain_scratch_` (kFull)
  /// or the body itself (kElided) — and checks its tag. Points `plaintext`
  /// at it only on a match; false on a mismatch.
  bool unprotect(std::span<const std::uint8_t> body,
                 std::span<const std::uint8_t>& plaintext);
  void fail(std::string_view reason);

  std::uint64_t direction_key(bool encrypt) const;

  tcp::TcpConnection& conn_;
  Role role_;
  Protection protection_;
  Callbacks cbs_;
  RecordParser parser_;
  bool established_ = false;
  bool failed_ = false;
  int handshake_flights_seen_ = 0;
  std::uint64_t session_key_ = 0;
  std::uint64_t encrypt_counter_ = 0;  // protected bytes sent
  std::uint64_t decrypt_counter_ = 0;  // protected bytes received
  std::uint64_t records_sent_ = 0;
  std::vector<std::uint8_t> wire_scratch_;   // reused by every send
  std::vector<std::uint8_t> plain_scratch_;  // kFull decrypt target
};

}  // namespace h2sim::tls
