#include "tls/session.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "obs/profiler.hpp"

namespace h2sim::tls {
namespace {

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

void store64(std::uint8_t* p, std::uint64_t w) { std::memcpy(p, &w, sizeof(w)); }

/// Keyed checksum over the ciphertext, standing in for the AEAD tag. Two
/// chained mix64 lanes consume the body one 64-bit word at a time (the last
/// partial word zero-padded), then the length is folded in so padding cannot
/// collide with genuine zero bytes. Word-at-a-time keeps record protection
/// off the trial profile — it was 2 mix64 per *byte* when computed bytewise,
/// which dominated whole-trial runtime.
struct TagWords {
  std::uint64_t t1;
  std::uint64_t t2;
};

TagWords tag_words(std::uint64_t key, std::uint64_t counter,
                   const std::uint8_t* body, std::size_t n) {
  std::uint64_t t1 = key ^ counter;
  std::uint64_t t2 = ~key;
  std::size_t i = 0;
  std::uint64_t j = 0;
  for (; i + 8 <= n; i += 8, ++j) {
    t1 = mix64(t1 + load64(body + i));
    t2 = mix64(t2 ^ (t1 + j));
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, body + i, n - i);
    t1 = mix64(t1 + w);
    t2 = mix64(t2 ^ (t1 + j));
  }
  t1 = mix64(t1 + n);
  t2 = mix64(t2 ^ t1);
  return {t1, t2};
}

constexpr std::size_t kClientHelloBytes = 512;
constexpr std::size_t kServerFlightBytes = 2500;  // hello + cert + finished
constexpr std::size_t kClientFinishedBytes = 64;

}  // namespace

TlsSession::TlsSession(tcp::TcpConnection& conn, Role role)
    : conn_(conn), role_(role) {
  // Both endpoints derive the same session key from the 4-tuple; stands in
  // for the key agreement the real handshake would perform.
  const std::uint64_t lo = std::min(conn.local_port(), conn.remote_port());
  const std::uint64_t hi = std::max(conn.local_port(), conn.remote_port());
  session_key_ = mix64((lo << 32) | (hi << 16) | 0x7153u);

  tcp::TcpConnection::Callbacks cbs;
  cbs.on_connected = [this] { on_tcp_connected(); };
  cbs.on_data = [this](std::span<const std::uint8_t> b) { on_tcp_data(b); };
  cbs.on_remote_close = [this] {
    if (cbs_.on_peer_close) cbs_.on_peer_close();
  };
  cbs.on_aborted = [this](std::string_view reason) {
    if (cbs_.on_aborted) cbs_.on_aborted(reason);
  };
  cbs.on_writable = [this] {
    if (cbs_.on_writable) cbs_.on_writable();
  };
  conn_.set_callbacks(std::move(cbs));
}

void TlsSession::start() {
  if (role_ == Role::kClient && conn_.established()) {
    send_handshake_flight(kClientHelloBytes);
  }
}

void TlsSession::on_tcp_connected() {
  if (role_ == Role::kClient) send_handshake_flight(kClientHelloBytes);
}

void TlsSession::send_handshake_flight(std::size_t size) {
  std::vector<std::uint8_t> body(size);
  for (std::size_t i = 0; i < size; ++i) {
    body[i] = static_cast<std::uint8_t>(mix64(session_key_ + i) & 0xff);
  }
  send_record(ContentType::kHandshake, body);
}

std::uint8_t* TlsSession::begin_record(ContentType type, std::size_t body_len) {
  wire_scratch_.resize(kRecordHeaderBytes + body_len);
  write_record_header(type, body_len, wire_scratch_.data());
  return wire_scratch_.data() + kRecordHeaderBytes;
}

void TlsSession::send_record(ContentType type, std::span<const std::uint8_t> body) {
  std::memcpy(begin_record(type, body.size()), body.data(), body.size());
  ++records_sent_;
  conn_.send(wire_scratch_);
}

std::uint64_t TlsSession::direction_key(bool encrypt) const {
  // Client-to-server traffic uses key A, server-to-client key B; "encrypt"
  // refers to this endpoint's sending direction.
  const bool c2s = (role_ == Role::kClient) == encrypt;
  return session_key_ ^ (c2s ? 0xa5a5a5a5a5a5a5a5ULL : 0x5a5a5a5a5a5a5a5aULL);
}

std::uint64_t keystream_word(std::uint64_t dir_key, std::uint64_t counter) {
  return mix64(dir_key + 0x9e3779b97f4a7c15ULL * (counter + 1));
}

void apply_keystream(std::uint64_t key, std::uint64_t stream_off,
                     const std::uint8_t* src, std::uint8_t* dst,
                     std::size_t n) {
  // The keystream byte at stream offset `o` is byte (o % 8) of
  // keystream_word(key, o / 8) — identical to the original bytewise
  // formulation, but each word is derived once per 8 bytes instead of once
  // per byte, and aligned runs XOR whole words.
  std::uint64_t off = stream_off;
  std::size_t i = 0;
  // Head: unaligned bytes up to the next keystream-word boundary.
  if (i < n && off % 8 != 0) {
    const std::uint64_t word = keystream_word(key, off / 8);
    while (i < n && off % 8 != 0) {
      dst[i] = src[i] ^ static_cast<std::uint8_t>(word >> ((off % 8) * 8));
      ++i;
      ++off;
    }
  }
  // Body: whole words. A little-endian word XOR equals eight byte XORs in
  // keystream order; big-endian targets take the bytewise tail loop instead.
  if constexpr (std::endian::native == std::endian::little) {
    // Counter-mode words are independent, so a 4-wide block exposes the
    // mix64 pipelines to the vectorizer (no intrinsics; each lane computes
    // exactly the word the single-word loop would).
    for (; i + 32 <= n; i += 32, off += 32) {
      const std::uint64_t base = off / 8;
      const std::uint64_t w0 = keystream_word(key, base + 0);
      const std::uint64_t w1 = keystream_word(key, base + 1);
      const std::uint64_t w2 = keystream_word(key, base + 2);
      const std::uint64_t w3 = keystream_word(key, base + 3);
      store64(dst + i + 0, load64(src + i + 0) ^ w0);
      store64(dst + i + 8, load64(src + i + 8) ^ w1);
      store64(dst + i + 16, load64(src + i + 16) ^ w2);
      store64(dst + i + 24, load64(src + i + 24) ^ w3);
    }
    for (; i + 8 <= n; i += 8, off += 8) {
      store64(dst + i, load64(src + i) ^ keystream_word(key, off / 8));
    }
  }
  // Tail: the final partial word (or everything after the head on
  // big-endian targets), one keystream word per 8 bytes.
  while (i < n) {
    const std::uint64_t word = keystream_word(key, off / 8);
    do {
      dst[i] = src[i] ^ static_cast<std::uint8_t>(word >> ((off % 8) * 8));
      ++i;
      ++off;
    } while (i < n && off % 8 != 0);
  }
}

void TlsSession::send_protected(std::span<const std::uint8_t> plaintext) {
  obs::ProfileScope prof(obs::Component::kTls);
  const std::uint64_t key = direction_key(/*encrypt=*/true);
  const std::size_t n = plaintext.size();
  std::uint8_t* body = begin_record(ContentType::kApplicationData, n + kAeadTagBytes);
  apply_keystream(key, encrypt_counter_, plaintext.data(), body, n);
  const TagWords tag = tag_words(key, encrypt_counter_, body, n);
  store64(body + n, tag.t1);
  store64(body + n + 8, tag.t2);
  encrypt_counter_ += n;
  ++records_sent_;
  conn_.send(wire_scratch_);
}

bool TlsSession::unprotect(std::span<const std::uint8_t> body,
                           std::vector<std::uint8_t>& plaintext_out) {
  if (body.size() < kAeadTagBytes) return false;
  const std::size_t n = body.size() - kAeadTagBytes;
  const std::uint64_t key = direction_key(/*encrypt=*/false);

  const TagWords tag = tag_words(key, decrypt_counter_, body.data(), n);
  std::uint8_t expected[kAeadTagBytes];
  store64(expected, tag.t1);
  store64(expected + 8, tag.t2);
  if (std::memcmp(expected, body.data() + n, kAeadTagBytes) != 0) return false;

  plaintext_out.resize(n);
  apply_keystream(key, decrypt_counter_, body.data(), plaintext_out.data(), n);
  decrypt_counter_ += n;
  return true;
}

void TlsSession::write(std::span<const std::uint8_t> plaintext) {
  if (failed_) return;
  std::size_t pos = 0;
  while (pos < plaintext.size()) {
    const std::size_t n = std::min(kMaxPlaintextPerRecord, plaintext.size() - pos);
    send_protected(plaintext.subspan(pos, n));
    pos += n;
  }
}

void TlsSession::close() {
  if (!failed_ && conn_.established()) {
    const std::uint8_t close_notify[2] = {1, 0};  // warning, close_notify
    send_record(ContentType::kAlert, close_notify);
  }
  conn_.close();
}

void TlsSession::fail(std::string_view reason) {
  if (failed_) return;
  failed_ = true;
  conn_.abort(reason);
}

void TlsSession::on_tcp_data(std::span<const std::uint8_t> bytes) {
  obs::ProfileScope prof(obs::Component::kTls);
  parser_.feed(bytes);
  RecordHeader header;
  RecordParser::Record rec;  // body capacity reused across iterations
  while (!failed_ && parser_.peek_header(header)) {
    // An over-long record is refused on its header, before its body is
    // buffered (RFC 8446 §5.2).
    if (header.length > kMaxCiphertextBytes) {
      fail("tls-record-overflow");
    } else if (parser_.next(rec)) {
      handle_record(rec);
    } else {
      return;
    }
  }
}

void TlsSession::handle_record(const RecordParser::Record& rec) {
  switch (rec.header.type) {
    case ContentType::kHandshake:
      handle_handshake_record(rec);
      return;
    case ContentType::kApplicationData: {
      if (!unprotect(rec.body, plain_scratch_)) {
        fail("tls-bad-record-mac");
        return;
      }
      if (cbs_.on_plaintext) cbs_.on_plaintext(std::span(plain_scratch_));
      return;
    }
    case ContentType::kAlert:
      // close_notify; the TCP FIN that follows drives teardown.
      return;
    case ContentType::kChangeCipherSpec:
      return;
    default:
      fail("tls-unexpected-message");  // RFC 8446 §5: unknown content type
      return;
  }
}

void TlsSession::handle_handshake_record(const RecordParser::Record&) {
  ++handshake_flights_seen_;
  if (role_ == Role::kServer) {
    if (handshake_flights_seen_ == 1) {
      // ClientHello received: answer with the full server flight.
      send_handshake_flight(kServerFlightBytes);
    } else if (handshake_flights_seen_ == 2 && !established_) {
      established_ = true;  // client Finished received
      if (cbs_.on_established) cbs_.on_established();
    }
  } else {
    if (handshake_flights_seen_ == 1 && !established_) {
      send_handshake_flight(kClientFinishedBytes);
      established_ = true;
      if (cbs_.on_established) cbs_.on_established();
    }
  }
}

}  // namespace h2sim::tls
