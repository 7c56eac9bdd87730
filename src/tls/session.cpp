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

/// The 16-byte tag of a protected record, as two words.
struct TagWords {
  std::uint64_t t1;
  std::uint64_t t2;
};

/// The record tag, in both protection modes: a keyed checksum over the
/// plaintext, optionally copying it to `dst` in the same pass. Body word j
/// (the last partial word zero-padded) feeds lane j % 4 through an
/// xxHash64-style round, which is a bijection in both the lane and the word.
/// So any change confined to one word — a flipped byte, or another word
/// duplicated over it — always changes that lane, and the finaliser, a
/// bijection in each lane with the others fixed, always changes the tag.
/// kFull XORs the keystream over the body after tagging it, so a change to a
/// ciphertext byte is a change to the plaintext byte under it, caught alike.
/// Reordered words pass through different points of the nonlinear lane
/// chains and collide only by chance (~2^-64). The lanes are seeded from the
/// key and the record's stream offset, which no two records of a direction
/// share (write() never sends an empty record), so a replayed record fails
/// too; the length is folded in so padding cannot collide with genuine zero
/// bytes. The four lanes are independent chains, so the pass runs near
/// memcpy speed.
template <bool kCopy>
TagWords checksum_words(std::uint64_t key, std::uint64_t counter,
                        const std::uint8_t* src, std::uint8_t* dst,
                        std::size_t n) {
  constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
  const auto round = [](std::uint64_t lane, std::uint64_t w) {
    return std::rotl(lane + w * kP2, 31) * kP1;
  };
  const std::uint64_t seed = mix64(key + kP1 * (counter + 1));
  std::uint64_t lane[4] = {seed + kP1 + kP2, seed + kP2, seed, seed - kP1};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const std::uint64_t w0 = load64(src + i + 0);
    const std::uint64_t w1 = load64(src + i + 8);
    const std::uint64_t w2 = load64(src + i + 16);
    const std::uint64_t w3 = load64(src + i + 24);
    if constexpr (kCopy) {
      store64(dst + i + 0, w0);
      store64(dst + i + 8, w1);
      store64(dst + i + 16, w2);
      store64(dst + i + 24, w3);
    }
    lane[0] = round(lane[0], w0);
    lane[1] = round(lane[1], w1);
    lane[2] = round(lane[2], w2);
    lane[3] = round(lane[3], w3);
  }
  for (std::size_t l = 0; i < n; i += 8, ++l) {
    std::uint64_t w = 0;
    const std::size_t len = std::min<std::size_t>(8, n - i);
    std::memcpy(&w, src + i, len);
    if constexpr (kCopy) std::memcpy(dst + i, src + i, len);
    lane[l] = round(lane[l], w);
  }
  const std::uint64_t t1 = mix64(lane[0] + mix64(lane[1] ^ n));
  const std::uint64_t t2 = mix64(lane[2] + mix64(lane[3] ^ t1));
  return {t1, t2};
}

constexpr std::size_t kClientHelloBytes = 512;
constexpr std::size_t kServerFlightBytes = 2500;  // hello + cert + finished
constexpr std::size_t kClientFinishedBytes = 64;

}  // namespace

TlsSession::TlsSession(tcp::TcpConnection& conn, Role role,
                       Protection protection)
    : conn_(conn), role_(role), protection_(protection) {
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
  const TagWords tag =
      checksum_words<true>(key, encrypt_counter_, plaintext.data(), body, n);
  if (protection_ == Protection::kFull) {
    apply_keystream(key, encrypt_counter_, body, body, n);
  }
  store64(body + n, tag.t1);
  store64(body + n + 8, tag.t2);
  encrypt_counter_ += n;
  ++records_sent_;
  conn_.send(wire_scratch_);
}

bool TlsSession::unprotect(std::span<const std::uint8_t> body,
                           std::span<const std::uint8_t>& plaintext) {
  if (body.size() < kAeadTagBytes) return false;
  const std::size_t n = body.size() - kAeadTagBytes;
  const std::uint64_t key = direction_key(/*encrypt=*/false);
  std::span<const std::uint8_t> plain = body.first(n);
  if (protection_ == Protection::kFull) {
    plain_scratch_.resize(n);
    apply_keystream(key, decrypt_counter_, body.data(), plain_scratch_.data(), n);
    plain = plain_scratch_;
  }

  const TagWords tag =
      checksum_words<false>(key, decrypt_counter_, plain.data(), nullptr, n);
  std::uint8_t expected[kAeadTagBytes];
  store64(expected, tag.t1);
  store64(expected + 8, tag.t2);
  if (std::memcmp(expected, body.data() + n, kAeadTagBytes) != 0) return false;
  plaintext = plain;
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
  while (!failed_ && parser_.peek_header(header)) {
    // An over-long record is refused on its header, before its body is
    // buffered (RFC 8446 §5.2).
    if (header.length > kMaxCiphertextBytes) {
      fail("tls-record-overflow");
    } else if (const auto rec = parser_.next()) {
      handle_record(*rec);  // the body is borrowed until the next feed()
    } else {
      return;
    }
  }
}

void TlsSession::handle_record(const RecordView& rec) {
  switch (rec.header.type) {
    case ContentType::kHandshake:
      handle_handshake_record();
      return;
    case ContentType::kApplicationData: {
      std::span<const std::uint8_t> plaintext;
      if (!unprotect(rec.body, plaintext)) {
        fail("tls-bad-record-mac");
        return;
      }
      if (cbs_.on_plaintext) cbs_.on_plaintext(plaintext);
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

void TlsSession::handle_handshake_record() {
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
