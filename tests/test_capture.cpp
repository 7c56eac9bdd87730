// The wire-capture subsystem: pcapng serialization round trips, synthetic
// Ethernet/IPv4/TCP framing, TCP/TLS reassembly edge cases, and the
// subsystem's two headline guarantees — (1) export → reingest reproduces
// the live trial's adversary view exactly (32-seed round-trip identity),
// and (2) capture is purely observational: a captured trial's TrialResult
// is bit-identical to an uncaptured one apart from the capture counters.
// Also validates the committed golden corpus against the live simulator.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "analysis/boundary.hpp"
#include "analysis/padding.hpp"
#include "analysis/predictor.hpp"
#include "analysis/trace.hpp"
#include "defense/policy.hpp"
#include "capture/frame.hpp"
#include "capture/pcapng.hpp"
#include "capture/reader.hpp"
#include "experiment/runner.hpp"
#include "obs/context.hpp"
#include "obs/sha256.hpp"
#include "sim/random.hpp"
#include "web/website.hpp"

#ifndef H2SIM_GOLDEN_DIR
#error "H2SIM_GOLDEN_DIR must point at the committed golden corpus"
#endif

namespace h2sim::capture {
namespace {

namespace fs = std::filesystem;

/// Unique per-test scratch directory, removed on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : dir_(fs::temp_directory_path() /
             ("h2sim_capture_" + tag + "_" +
              std::to_string(static_cast<unsigned>(::getpid())))) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~ScratchDir() { fs::remove_all(dir_); }
  fs::path operator/(const std::string& name) const { return dir_ / name; }

 private:
  fs::path dir_;
};

// --- PcapngWriter / PcapngReader ---

TEST(Pcapng, WriterReaderRoundTrip) {
  ScratchDir dir("pcapng");
  const std::string path = (dir / "rt.pcapng").string();

  PcapngWriter writer(path);
  const std::uint32_t gw = writer.add_interface("gateway", "middlebox vantage");
  const std::uint32_t cl = writer.add_interface("client", "victim vantage");
  EXPECT_EQ(gw, 0u);
  EXPECT_EQ(cl, 1u);

  const std::vector<std::uint8_t> a = {0xde, 0xad, 0xbe, 0xef};
  const std::vector<std::uint8_t> b = {0x01};  // exercises padding to 4 bytes
  // > 2^32 ns exercises the EPB high/low timestamp split.
  std::ranges::copy(a, writer.begin_packet(gw, 5'000'000'000LL, a.size()).begin());
  std::ranges::copy(b, writer.begin_packet(cl, 5'000'000'123LL, b.size()).begin());
  EXPECT_GT(writer.bytes_written(), 0u);
  ASSERT_TRUE(writer.close());

  PcapngReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  ASSERT_EQ(reader.interfaces().size(), 2u);
  EXPECT_EQ(reader.interfaces()[0].name, "gateway");
  EXPECT_EQ(reader.interfaces()[1].name, "client");
  EXPECT_EQ(reader.interfaces()[0].linktype, kLinktypeEthernet);
  EXPECT_EQ(reader.interfaces()[0].tsresol_exp, 9);  // nanoseconds
  ASSERT_EQ(reader.packets().size(), 2u);
  EXPECT_EQ(reader.packets()[0].iface, gw);
  EXPECT_EQ(reader.packets()[0].ts_nanos, 5'000'000'000LL);
  EXPECT_EQ(reader.packets()[0].frame, a);
  EXPECT_EQ(reader.packets()[1].iface, cl);
  EXPECT_EQ(reader.packets()[1].ts_nanos, 5'000'000'123LL);
  EXPECT_EQ(reader.packets()[1].frame, b);
}

// Blocks stream to the file as the writer's buffer fills: several flushes
// worth of frames of every size class, one of them larger than the buffer,
// read back intact, and the byte count is the file size.
TEST(Pcapng, WriterStreamsPastTheFlushThreshold) {
  ScratchDir dir("pcapng_stream");
  const std::string path = (dir / "big.pcapng").string();
  sim::Rng rng(2024);
  std::vector<std::vector<std::uint8_t>> frames;
  std::size_t total = 0;
  while (total < 3 * PcapngWriter::kFlushBytes) {
    std::vector<std::uint8_t> f(static_cast<std::size_t>(rng.uniform_int(0, 1600)));
    for (auto& b : f) b = static_cast<std::uint8_t>(rng.next_u64());
    total += f.size();
    frames.push_back(std::move(f));
  }
  frames.insert(frames.begin() + static_cast<std::ptrdiff_t>(frames.size() / 2),
                std::vector<std::uint8_t>(PcapngWriter::kFlushBytes + 3, 0x7e));

  PcapngWriter writer(path);
  writer.add_interface("gateway", "");
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& f = frames[i];
    std::ranges::copy(f, writer.begin_packet(0, static_cast<std::int64_t>(i) * 1000,
                                             f.size()).begin());
  }
  EXPECT_TRUE(fs::exists(path)) << "nothing flushed before close()";
  ASSERT_TRUE(writer.close());
  EXPECT_EQ(fs::file_size(path), writer.bytes_written());

  PcapngReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(path, &error)) << error;
  ASSERT_EQ(reader.packets().size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(reader.packets()[i].ts_nanos, static_cast<std::int64_t>(i) * 1000);
    EXPECT_EQ(reader.packets()[i].frame, frames[i]) << "frame " << i;
  }

  // A path that cannot be opened fails close(), however much was written.
  PcapngWriter bad((dir / "no-such-dir" / "x.pcapng").string());
  bad.add_interface("gateway", "");
  for (const auto& f : frames) {
    std::ranges::copy(f, bad.begin_packet(0, 0, f.size()).begin());
  }
  EXPECT_FALSE(bad.close());
  EXPECT_FALSE(bad.close()) << "close() is idempotent";
}

TEST(Pcapng, ReaderRejectsMissingAndMalformedFiles) {
  PcapngReader reader;
  std::string error;
  EXPECT_FALSE(reader.open("/nonexistent/nope.pcapng", &error));
  EXPECT_FALSE(error.empty());

  ScratchDir dir("pcapng_bad");
  const std::string path = (dir / "bad.pcapng").string();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "this is not a pcapng file at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  error.clear();
  EXPECT_FALSE(reader.open(path, &error));
  EXPECT_FALSE(error.empty());
}

/// Little-endian pcapng bytes for the reader's hostile-input tests.
class RawPcapng {
 public:
  RawPcapng() {
    // Section Header Block: magic, version 1.0, unspecified section length.
    block(0x0A0D0D0A, {0x4D, 0x3C, 0x2B, 0x1A, 1, 0, 0, 0,
                       0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
  }

  /// An Ethernet IDB; `tsresol` < 0 leaves the default microsecond clock.
  RawPcapng& interface(int tsresol) {
    std::vector<std::uint8_t> body = {1, 0, 0, 0, 0, 0, 0, 0};
    if (tsresol >= 0) {
      const std::vector<std::uint8_t> opt = {
          9, 0, 1, 0, static_cast<std::uint8_t>(tsresol), 0, 0, 0};
      body.insert(body.end(), opt.begin(), opt.end());
    }
    body.insert(body.end(), {0, 0, 0, 0});  // opt_endofopt
    block(0x00000001, body);
    return *this;
  }

  /// An empty EPB on interface 0 with the given raw timestamp.
  RawPcapng& packet(std::uint32_t ts_high, std::uint32_t ts_low) {
    std::vector<std::uint8_t> body;
    for (const std::uint32_t v : {0u, ts_high, ts_low, 0u, 0u}) put_u32(body, v);
    block(0x00000006, body);
    return *this;
  }

  /// A block of `type` around `body`. Its leading and trailing length fields
  /// are `lead` and `trail`, where 0 means the true total.
  RawPcapng& block(std::uint32_t type, const std::vector<std::uint8_t>& body,
                   std::uint32_t lead = 0, std::uint32_t trail = 0) {
    const auto total = static_cast<std::uint32_t>(12 + body.size());
    put_u32(bytes_, type);
    put_u32(bytes_, lead ? lead : total);
    bytes_.insert(bytes_.end(), body.begin(), body.end());
    put_u32(bytes_, trail ? trail : total);
    return *this;
  }

  /// Raw bytes after the last block.
  RawPcapng& tail(const std::vector<std::uint8_t>& bytes) {
    bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
    return *this;
  }

  void write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(bytes_.data(), 1, bytes_.size(), f);
    std::fclose(f);
  }

 private:
  static void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> bytes_;
};

TEST(Pcapng, ReaderRejectsOverflowingTimestamps) {
  // Both used to be signed-overflow UB: 10^127 in the resolution scale, and
  // ~9.2e18 microseconds times 1000.
  ScratchDir dir("pcapng_ts");
  const std::string resol = (dir / "resol.pcapng").string();
  const std::string ticks = (dir / "ticks.pcapng").string();
  RawPcapng().interface(127).write(resol);
  RawPcapng().interface(-1).packet(0x7fffffff, 0).write(ticks);

  PcapngReader reader;
  std::string error;
  EXPECT_FALSE(reader.open(resol, &error));
  EXPECT_NE(error.find("if_tsresol exponent 127 exceeds 18"), std::string::npos)
      << error;
  error.clear();
  EXPECT_FALSE(reader.open(ticks, &error));
  EXPECT_NE(error.find("EPB timestamp overflows int64 nanoseconds"),
            std::string::npos)
      << error;

  // The largest legal values still parse: 10^-18 s ticks, and a microsecond
  // timestamp just under the int64 nanosecond limit.
  const std::string ok = (dir / "ok.pcapng").string();
  RawPcapng().interface(18).interface(-1).packet(0, 1).write(ok);
  ASSERT_TRUE(reader.open(ok, &error)) << error;
  ASSERT_EQ(reader.packets().size(), 1u);
  EXPECT_EQ(reader.packets()[0].ts_nanos, 0);
  RawPcapng().interface(-1).packet(0x0020c49b, 0xa5e353f7).write(ok);
  ASSERT_TRUE(reader.open(ok, &error)) << error;
  EXPECT_EQ(reader.packets()[0].ts_nanos, 9'223'372'036'854'775'000LL);
}

TEST(Pcapng, ReaderRejectsMalformedBlockStructure) {
  // An EPB on interface 0 whose 100-byte capture the 20-byte body cannot hold.
  const std::vector<std::uint8_t> overlong_epb = {
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 100, 0, 0, 0, 100, 0, 0, 0};
  // An IDB whose if_name option claims 255 bytes of a 4-byte block rest.
  const std::vector<std::uint8_t> overlong_option = {
      1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 255, 0, 0, 0, 0, 0};
  const struct {
    const char* name;
    RawPcapng file;
    const char* error;
  } cases[] = {
      {"total_below_12", RawPcapng().block(0x6, {}, 8, 8), "bad block length"},
      {"total_not_4_aligned", RawPcapng().block(0x6, {0, 0, 0, 0}, 14),
       "bad block length"},
      {"total_past_eof", RawPcapng().interface(-1).block(0x6, {}, 1000),
       "bad block length"},
      {"trailer_mismatch", RawPcapng().interface(-1).block(0x6, {}, 0, 16),
       "block trailer length mismatch"},
      {"stray_tail", RawPcapng().interface(-1).tail({1, 2, 3, 4, 5}),
       "truncated block"},
      {"idb_option_overrun", RawPcapng().block(0x1, overlong_option),
       "bad option"},
      {"epb_cap_len_overrun", RawPcapng().interface(-1).block(0x6, overlong_epb),
       "EPB capture length overruns block"},
  };
  ScratchDir dir("pcapng_blocks");
  PcapngReader reader;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = (dir / (std::string(c.name) + ".pcapng")).string();
    c.file.write(path);
    std::string error;
    EXPECT_FALSE(reader.open(path, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_NE(error.find(c.error), std::string::npos) << error;
  }
  // The same blocks with consistent lengths and no tail still parse.
  const std::string ok = (dir / "ok.pcapng").string();
  RawPcapng().interface(-1).packet(0, 1).write(ok);
  std::string error;
  EXPECT_TRUE(reader.open(ok, &error)) << error;
}

// --- Synthetic framing ---

net::Packet sample_packet() {
  net::Packet p;
  p.src = 1;
  p.dst = 2;
  p.tcp.src_port = 54321;
  p.tcp.dst_port = 443;
  p.tcp.seq = 0xCAFEBABE;
  p.tcp.ack = 0x12345678;
  p.tcp.flags = net::tcpflag::kAck;
  p.tcp.wnd = 65535;
  for (int i = 0; i < 100; ++i) p.payload.push_back(static_cast<std::uint8_t>(i));
  return p;
}

TEST(Frame, EncodeDecodeRoundTrip) {
  const net::Packet p = sample_packet();
  std::vector<std::uint8_t> frame(frame_size(p));
  encode_frame(p, frame);
  ASSERT_EQ(frame.size(), kFrameOverheadBytes + p.payload.size());

  net::Packet out;
  std::string error;
  ASSERT_TRUE(decode_frame(frame, &out, &error)) << error;
  EXPECT_EQ(out.src, p.src);
  EXPECT_EQ(out.dst, p.dst);
  EXPECT_EQ(out.tcp.src_port, p.tcp.src_port);
  EXPECT_EQ(out.tcp.dst_port, p.tcp.dst_port);
  EXPECT_EQ(out.tcp.seq, p.tcp.seq);
  EXPECT_EQ(out.tcp.ack, p.tcp.ack);
  EXPECT_EQ(out.tcp.flags, p.tcp.flags);
  EXPECT_EQ(out.tcp.wnd, p.tcp.wnd);
  EXPECT_EQ(out.payload, p.payload);
}

TEST(Frame, AllTcpFlagsSurviveTheWireTranslation) {
  for (std::uint8_t flags :
       {net::tcpflag::kSyn, net::tcpflag::kAck, net::tcpflag::kFin,
        net::tcpflag::kRst,
        static_cast<std::uint8_t>(net::tcpflag::kSyn | net::tcpflag::kAck),
        static_cast<std::uint8_t>(net::tcpflag::kFin | net::tcpflag::kAck)}) {
    net::Packet p = sample_packet();
    p.tcp.flags = flags;
    p.payload.clear();
    std::vector<std::uint8_t> frame(frame_size(p));
    encode_frame(p, frame);
    net::Packet out;
    ASSERT_TRUE(decode_frame(frame, &out, nullptr));
    EXPECT_EQ(out.tcp.flags, flags) << "flags " << static_cast<int>(flags);
  }
}

TEST(Frame, ChecksumsValidateLikeADissectorWould) {
  const net::Packet p = sample_packet();
  std::vector<std::uint8_t> frame(frame_size(p));
  encode_frame(p, frame);

  // RFC 1071: the checksum of a header that includes its own (correct)
  // checksum field is 0 — exactly the verification a dissector performs.
  const std::span<const std::uint8_t> ip(frame.data() + kEthernetHeaderBytes,
                                         kIpv4HeaderBytes);
  EXPECT_EQ(inet_checksum(ip), 0);

  // TCP checksum over pseudo-header + segment must also validate.
  const std::size_t seg_len = kTcpHeaderBytes + p.payload.size();
  std::vector<std::uint8_t> pseudo;
  pseudo.insert(pseudo.end(), frame.begin() + kEthernetHeaderBytes + 12,
                frame.begin() + kEthernetHeaderBytes + 20);  // src+dst IP
  pseudo.push_back(0);
  pseudo.push_back(6);  // protocol TCP
  pseudo.push_back(static_cast<std::uint8_t>(seg_len >> 8));
  pseudo.push_back(static_cast<std::uint8_t>(seg_len & 0xFF));
  pseudo.insert(pseudo.end(),
                frame.begin() + kEthernetHeaderBytes + kIpv4HeaderBytes,
                frame.end());
  EXPECT_EQ(inet_checksum(pseudo), 0);
}

TEST(Frame, DecodeRejectsNonIpv4TcpFrames) {
  net::Packet out;
  std::string error;

  // Too short for Ethernet.
  EXPECT_FALSE(decode_frame(std::vector<std::uint8_t>(5), &out, &error));

  // Valid frame, ethertype rewritten to ARP.
  std::vector<std::uint8_t> frame(frame_size(sample_packet()));
  encode_frame(sample_packet(), frame);
  frame[12] = 0x08;
  frame[13] = 0x06;
  EXPECT_FALSE(decode_frame(frame, &out, &error));
  EXPECT_FALSE(error.empty());

  // Valid frame, IP protocol rewritten to UDP.
  encode_frame(sample_packet(), frame);
  frame[kEthernetHeaderBytes + 9] = 17;
  EXPECT_FALSE(decode_frame(frame, &out, nullptr));
}

TEST(Frame, DecodeToleratesEthernetPadding) {
  // Minimum Ethernet frames are zero-padded to 60 bytes by real NICs; the
  // IP total-length field, not the frame length, must delimit the payload.
  net::Packet p = sample_packet();
  p.payload = {0xAA, 0xBB};
  std::vector<std::uint8_t> frame(frame_size(p));
  encode_frame(p, frame);
  frame.resize(60, 0);
  net::Packet out;
  ASSERT_TRUE(decode_frame(frame, &out, nullptr));
  EXPECT_EQ(out.payload, p.payload);
}

// The in-place encoder writes every byte of its span: random packets with
// 0-3000 byte payloads (odd lengths included), encoded at every alignment
// over a buffer of garbage, decode back to themselves, and both checksums
// verify (the ones-complement sum over the covered bytes is 0xFFFF).
TEST(Frame, InPlaceEncoderRoundTripsAndChecksumsVerify) {
  sim::Rng rng(7);
  std::vector<std::uint8_t> buf;
  for (int i = 0; i < 500; ++i) {
    net::Packet p;
    p.id = rng.next_u64();
    p.src = static_cast<net::NodeId>(rng.uniform_int(0, 255));
    p.dst = static_cast<net::NodeId>(rng.uniform_int(0, 255));
    p.tcp.src_port = static_cast<std::uint16_t>(rng.next_u64());
    p.tcp.dst_port = static_cast<std::uint16_t>(rng.next_u64());
    p.tcp.seq = static_cast<std::uint32_t>(rng.next_u64());
    p.tcp.ack = static_cast<std::uint32_t>(rng.next_u64());
    p.tcp.flags = net::tcpflag::kAck;
    p.tcp.wnd = static_cast<std::uint16_t>(rng.next_u64());
    p.payload.resize(static_cast<std::size_t>(i < 8 ? i : rng.uniform_int(0, 3000)));
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.next_u64());

    const std::size_t align = static_cast<std::size_t>(i % 8);
    buf.assign(align + frame_size(p), 0xA5);
    const std::span<std::uint8_t> frame =
        std::span(buf).subspan(align, frame_size(p));
    encode_frame(p, frame);

    net::Packet out;
    std::string error;
    ASSERT_TRUE(decode_frame(frame, &out, &error)) << error;
    EXPECT_EQ(out.src, p.src);
    EXPECT_EQ(out.dst, p.dst);
    EXPECT_EQ(out.tcp.src_port, p.tcp.src_port);
    EXPECT_EQ(out.tcp.dst_port, p.tcp.dst_port);
    EXPECT_EQ(out.tcp.seq, p.tcp.seq);
    EXPECT_EQ(out.tcp.ack, p.tcp.ack);
    EXPECT_EQ(out.tcp.wnd, p.tcp.wnd);
    EXPECT_EQ(out.payload, p.payload) << "packet " << i;

    const std::span<const std::uint8_t> ip =
        frame.subspan(kEthernetHeaderBytes, kIpv4HeaderBytes);
    EXPECT_EQ(inet_checksum(ip), 0) << "packet " << i;
    const std::span<const std::uint8_t> segment =
        frame.subspan(kEthernetHeaderBytes + kIpv4HeaderBytes);
    std::uint32_t pseudo = 6 + static_cast<std::uint32_t>(segment.size());
    for (std::size_t k = 12; k < 20; k += 2) {
      pseudo += static_cast<std::uint32_t>(ip[k] << 8 | ip[k + 1]);
    }
    EXPECT_EQ(inet_checksum(segment, pseudo), 0) << "packet " << i;
  }
}

// --- TlsRecordReassembler edge cases ---

/// 5-byte TLS record header + body.
std::vector<std::uint8_t> tls_record(std::uint8_t type, std::size_t body_len) {
  std::vector<std::uint8_t> out(5 + body_len, 0x5A);
  out[0] = type;
  out[1] = 0x03;
  out[2] = 0x03;
  out[3] = static_cast<std::uint8_t>(body_len >> 8);
  out[4] = static_cast<std::uint8_t>(body_len & 0xFF);
  return out;
}

CapturedPacket s2c_packet(std::uint32_t seq, std::vector<std::uint8_t> payload,
                          double t_ms, std::uint8_t flags = net::tcpflag::kAck) {
  CapturedPacket cp;
  cp.time = sim::TimePoint::from_nanos(static_cast<std::int64_t>(t_ms * 1e6));
  cp.packet.src = 2;
  cp.packet.dst = 1;
  cp.packet.tcp.src_port = 443;  // from the server => server->client
  cp.packet.tcp.dst_port = 50000;
  cp.packet.tcp.seq = seq;
  cp.packet.tcp.flags = flags;
  cp.packet.payload = std::move(payload);
  return cp;
}

/// A reassembler whose server->client stream is already SYN-synced at `isn`.
TlsRecordReassembler synced_reassembler(std::uint32_t isn) {
  TlsRecordReassembler r;
  r.feed(s2c_packet(isn, {}, 0.0, net::tcpflag::kSyn | net::tcpflag::kAck));
  return r;
}

TEST(Reassembler, RecordSplitAcrossPacketsReassembles) {
  TlsRecordReassembler r = synced_reassembler(1000);
  const auto rec = tls_record(23, 400);
  // Split mid-header and mid-body: 3 + 200 + rest.
  std::vector<std::uint8_t> p1(rec.begin(), rec.begin() + 3);
  std::vector<std::uint8_t> p2(rec.begin() + 3, rec.begin() + 203);
  std::vector<std::uint8_t> p3(rec.begin() + 203, rec.end());
  r.feed(s2c_packet(1001, p1, 1.0));
  r.feed(s2c_packet(1004, p2, 2.0));
  EXPECT_TRUE(r.trace().records().empty());  // still incomplete
  r.feed(s2c_packet(1204, p3, 3.0));
  ASSERT_EQ(r.trace().records().size(), 1u);
  const analysis::RecordObs& obs = r.trace().records()[0];
  EXPECT_EQ(obs.body_len, 400u);
  EXPECT_EQ(obs.dir, net::Direction::kServerToClient);
  // Attributed to the packet that completed the record.
  EXPECT_EQ(obs.time, sim::TimePoint::from_nanos(3'000'000));
}

TEST(Reassembler, TwoRecordsCoalescedInOnePacketBothEmerge) {
  TlsRecordReassembler r = synced_reassembler(2000);
  std::vector<std::uint8_t> payload = tls_record(23, 100);
  const auto second = tls_record(23, 200);
  payload.insert(payload.end(), second.begin(), second.end());
  r.feed(s2c_packet(2001, payload, 5.0));
  ASSERT_EQ(r.trace().records().size(), 2u);
  EXPECT_EQ(r.trace().records()[0].body_len, 100u);
  EXPECT_EQ(r.trace().records()[1].body_len, 200u);
  EXPECT_EQ(r.trace().records()[0].time, r.trace().records()[1].time);
}

TEST(Reassembler, OutOfOrderPacketsReorderBySequence) {
  TlsRecordReassembler r = synced_reassembler(3000);
  const auto rec = tls_record(23, 300);
  std::vector<std::uint8_t> p1(rec.begin(), rec.begin() + 100);
  std::vector<std::uint8_t> p2(rec.begin() + 100, rec.end());
  r.feed(s2c_packet(3101, p2, 1.0));  // arrives first
  EXPECT_TRUE(r.trace().records().empty());
  r.feed(s2c_packet(3001, p1, 2.0));  // the gap filler
  ASSERT_EQ(r.trace().records().size(), 1u);
  EXPECT_EQ(r.trace().records()[0].body_len, 300u);
}

TEST(Reassembler, DuplicatePacketsDedupeBySequence) {
  TlsRecordReassembler r = synced_reassembler(4000);
  const auto rec = tls_record(23, 150);
  const std::vector<std::uint8_t> payload(rec.begin(), rec.end());
  r.feed(s2c_packet(4001, payload, 1.0));
  r.feed(s2c_packet(4001, payload, 2.0));  // full retransmission
  ASSERT_EQ(r.trace().records().size(), 1u);

  // Overlapping retransmission: old bytes + one fresh record appended.
  std::vector<std::uint8_t> overlap(rec.begin() + 100, rec.end());
  const auto fresh = tls_record(23, 80);
  overlap.insert(overlap.end(), fresh.begin(), fresh.end());
  r.feed(s2c_packet(4101, overlap, 3.0));
  ASSERT_EQ(r.trace().records().size(), 2u);
  EXPECT_EQ(r.trace().records()[1].body_len, 80u);
}

TEST(Reassembler, OutOfOrderPacketsReorderAcrossTheSequenceWrap) {
  const std::uint32_t isn = 0xFFFFFEFFu;
  TlsRecordReassembler r = synced_reassembler(isn);
  const auto rec = tls_record(23, 200);
  const auto len = static_cast<std::uint32_t>(rec.size());
  const std::uint32_t a = isn + 1, b = a + len, c = b + len;
  ASSERT_LT(c, a);  // the third record starts past the wrap
  r.feed(s2c_packet(b, rec, 1.0));
  r.feed(s2c_packet(c, rec, 2.0));
  EXPECT_TRUE(r.trace().records().empty());
  r.feed(s2c_packet(a, rec, 3.0));  // fills the hole before both
  ASSERT_EQ(r.trace().records().size(), 3u);
  for (const analysis::RecordObs& obs : r.trace().records()) {
    EXPECT_EQ(obs.body_len, 200u);
    EXPECT_EQ(obs.time, sim::TimePoint::from_nanos(3'000'000));
  }
}

TEST(Reassembler, DirectionComesFromTheServerPort) {
  ReassemblerConfig cfg;
  cfg.server_port = 8443;
  TlsRecordReassembler r(cfg);
  net::Packet p;
  p.tcp.dst_port = 8443;
  EXPECT_EQ(r.direction_of(p), net::Direction::kClientToServer);
  p.tcp.dst_port = 50000;
  EXPECT_EQ(r.direction_of(p), net::Direction::kServerToClient);
}

// --- TlsRecordReassembler under malformed input ---
//
// The reassembler is a passive observer: it reports every record header it
// can frame, whatever the type or length, and nothing it cannot. Each case
// pins the record count that rule gives.

/// Body lengths of the complete records framed from the front of `stream`.
std::vector<std::size_t> framed_records(const std::vector<std::uint8_t>& stream) {
  std::vector<std::size_t> lens;
  std::size_t pos = 0;
  while (pos + 5 <= stream.size()) {
    const std::size_t len =
        static_cast<std::size_t>(stream[pos + 3]) << 8 | stream[pos + 4];
    if (pos + 5 + len > stream.size()) break;
    lens.push_back(len);
    pos += 5 + len;
  }
  return lens;
}

TEST(Reassembler, RandomPayloadsFrameExactlyTheCompleteRecords) {
  std::size_t framed = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Rng rng(seed);
    const std::uint32_t isn = static_cast<std::uint32_t>(rng.next_u64());
    // Random bytes in random-sized segments: the record headers, and so the
    // types and lengths, are whatever the bytes say.
    std::vector<std::uint8_t> stream;
    std::vector<CapturedPacket> packets;
    for (int i = 0; i < 120; ++i) {
      std::vector<std::uint8_t> payload(1 + rng.uniform(1460));
      for (std::uint8_t& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      const auto seq = isn + 1 + static_cast<std::uint32_t>(stream.size());
      stream.insert(stream.end(), payload.begin(), payload.end());
      packets.push_back(s2c_packet(seq, std::move(payload), i));
    }
    // Delivered shuffled, with every 5th segment also sent twice.
    const std::size_t n = packets.size();
    for (std::size_t i = 0; i < n; i += 5) packets.push_back(packets[i]);
    rng.shuffle(packets);

    TlsRecordReassembler r = synced_reassembler(isn);
    r.feed_all(std::span<const CapturedPacket>(packets));
    const std::vector<std::size_t> expected = framed_records(stream);
    framed += expected.size();
    ASSERT_EQ(r.trace().records().size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(r.trace().records()[i].body_len, expected[i]) << "seed " << seed;
    }
  }
  EXPECT_GT(framed, 0u);  // the seeds do frame records, not only fragments
}

TEST(Reassembler, UnknownContentTypeIsReportedAsSeen) {
  TlsRecordReassembler r = synced_reassembler(5000);
  std::vector<std::uint8_t> payload = tls_record(0x99, 40);
  const auto next = tls_record(23, 60);
  payload.insert(payload.end(), next.begin(), next.end());
  r.feed(s2c_packet(5001, payload, 1.0));
  ASSERT_EQ(r.trace().records().size(), 2u);
  EXPECT_EQ(static_cast<int>(r.trace().records()[0].type), 0x99);
  EXPECT_EQ(r.trace().records()[0].body_len, 40u);
  EXPECT_EQ(r.trace().records()[1].body_len, 60u);
}

TEST(Reassembler, OverlongRecordIsFramedOnlyOnceWhole) {
  // TLS 1.3 caps a record's ciphertext at 2^14 + 256 bytes; the observer
  // frames a longer record by its header all the same.
  constexpr std::size_t kOverlong = (1u << 14) + 256 + 1;
  TlsRecordReassembler r = synced_reassembler(6000);
  const auto rec = tls_record(23, kOverlong);
  std::uint32_t seq = 6001;
  for (std::size_t off = 0; off < rec.size(); off += 1460) {
    const std::size_t len = std::min<std::size_t>(1460, rec.size() - off);
    EXPECT_TRUE(r.trace().records().empty());
    r.feed(s2c_packet(seq, std::vector<std::uint8_t>(rec.begin() + off,
                                                     rec.begin() + off + len),
                      1.0));
    seq += static_cast<std::uint32_t>(len);
  }
  ASSERT_EQ(r.trace().records().size(), 1u);
  EXPECT_EQ(r.trace().records()[0].body_len, kOverlong);

  // A maximal 65535-byte header whose body never arrives adds nothing.
  std::vector<std::uint8_t> header = tls_record(23, 0);
  header[3] = header[4] = 0xFF;
  TlsRecordReassembler cut = synced_reassembler(7000);
  cut.feed(s2c_packet(7001, header, 1.0));
  cut.feed(s2c_packet(7006, std::vector<std::uint8_t>(1000, 0x5A), 2.0));
  EXPECT_TRUE(cut.trace().records().empty());
}

TEST(Reassembler, PayloadBeforeTheSynAddsNoRecord) {
  TlsRecordReassembler r;
  const auto rec = tls_record(23, 100);
  r.feed(s2c_packet(8001, rec, 1.0));
  EXPECT_TRUE(r.trace().records().empty());
  // The SYN syncs the flow; only payload after it is framed.
  r.feed(s2c_packet(8000, {}, 2.0, net::tcpflag::kSyn | net::tcpflag::kAck));
  EXPECT_TRUE(r.trace().records().empty());
  r.feed(s2c_packet(8001, rec, 3.0));
  ASSERT_EQ(r.trace().records().size(), 1u);
  EXPECT_EQ(r.trace().records()[0].time, sim::TimePoint::from_nanos(3'000'000));
}

TEST(Reassembler, UnfilledGapStopsFramingAtTheGap) {
  TlsRecordReassembler r = synced_reassembler(9000);
  const auto rec = tls_record(23, 200);
  const auto len = static_cast<std::uint32_t>(rec.size());
  r.feed(s2c_packet(9001, rec, 1.0));
  ASSERT_EQ(r.trace().records().size(), 1u);
  // The second record never arrives; everything past it waits for good.
  for (std::uint32_t i = 2; i < 40; ++i) {
    r.feed(s2c_packet(9001 + i * len, rec, i));
  }
  EXPECT_EQ(r.trace().records().size(), 1u);
  // Retransmissions of the framed record change nothing either.
  r.feed(s2c_packet(9001, rec, 50.0));
  EXPECT_EQ(r.trace().records().size(), 1u);
}

// --- Round-trip identity over 32 seeds (the acceptance criterion) ---

experiment::TrialConfig small_site(experiment::TrialConfig cfg) {
  cfg.site.pre_objects = 2;
  cfg.site.filler_objects = 8;
  cfg.site.head_fillers = 3;
  return cfg;
}

analysis::SizeIdentityDb default_emblem_db() {
  const web::Website site = web::make_isidewith_site();
  analysis::SizeIdentityDb db;
  for (int k = 0; k < 8; ++k) {
    db.add("party" + std::to_string(k),
           site.find(site.emblem_paths[static_cast<std::size_t>(k)])->size);
  }
  return db;
}

TEST(RoundTrip, ThirtyTwoSeedsReproduceTheLiveAdversaryView) {
  constexpr std::size_t kTrials = 32;
  ScratchDir dir("roundtrip");

  std::vector<analysis::PacketTrace> live(kTrials);
  std::vector<experiment::TrialConfig> cfgs;
  for (std::size_t i = 0; i < kTrials; ++i) {
    experiment::TrialConfig cfg;
    cfg.seed = 100 + i;
    if (i < 16) {
      cfg.attack = experiment::full_attack_config();
    } else {
      cfg = small_site(std::move(cfg));  // attack off, multiplexed baseline
    }
    cfg.capture.path =
        (dir / ("trial_" + std::to_string(i) + ".pcapng")).string();
    cfg.trace_inspector = [&live, i](const analysis::PacketTrace& t) {
      live[i] = t;  // per-trial slot: safe from concurrent inspectors
    };
    cfgs.push_back(std::move(cfg));
  }

  const std::vector<experiment::TrialResult> results =
      experiment::run_trials(cfgs);
  ASSERT_EQ(results.size(), kTrials);

  const analysis::SizeIdentityDb emblem_db = default_emblem_db();
  for (std::size_t i = 0; i < kTrials; ++i) {
    const std::string path =
        (dir / ("trial_" + std::to_string(i) + ".pcapng")).string();

    PcapReader reader;
    std::string error;
    ASSERT_TRUE(reader.open(path, &error)) << "trial " << i << ": " << error;
    EXPECT_EQ(reader.skipped_frames(), 0u) << "trial " << i;

    const auto gw = reader.find_interface("gateway");
    ASSERT_TRUE(gw.has_value()) << "trial " << i;
    const auto packets = reader.packets_on(*gw);
    EXPECT_EQ(packets.size(), results[i].capture_packets) << "trial " << i;
    EXPECT_EQ(fs::file_size(path), results[i].capture_bytes_written)
        << "trial " << i;

    // (1) Record-for-record identity with the live gateway monitor.
    TlsRecordReassembler reassembler;
    reassembler.feed_all(std::span<const CapturedPacket* const>(packets));
    ASSERT_EQ(reassembler.trace().records().size(), live[i].records().size())
        << "trial " << i;
    EXPECT_TRUE(reassembler.trace().records() == live[i].records())
        << "record stream diverged at trial " << i;
    EXPECT_EQ(static_cast<std::size_t>(reassembler.get_count()),
              static_cast<std::size_t>(results[i].gets_counted))
        << "trial " << i;

    // (2) The offline pipeline reaches the live trial's verdicts.
    if (i < 16) {
      const auto detections = analysis::detect_objects(reassembler.trace());
      const auto pred = analysis::predict_sequence(detections, emblem_db);
      EXPECT_EQ(pred.ranking, results[i].predicted)
          << "offline prediction diverged at trial " << i;
    }
  }
}

TEST(RoundTrip, CaptureIsPurelyObservational) {
  // A captured trial runs full TLS record protection and an uncaptured one
  // the elided mode, so this also pins that no TrialResult field depends on
  // ciphertext bytes.
  ScratchDir dir("observational");
  for (std::uint64_t seed = 77; seed < 85; ++seed) {
    for (const bool attack_on : {true, false}) {
      SCOPED_TRACE(seed);
      experiment::TrialConfig off_cfg;
      off_cfg.seed = seed;
      if (attack_on) off_cfg.attack = experiment::full_attack_config();
      else off_cfg = small_site(std::move(off_cfg));

      experiment::TrialConfig on_cfg = off_cfg;
      on_cfg.capture.path =
          (dir / (attack_on ? "on.pcapng" : "off.pcapng")).string();
      on_cfg.capture.client_vantage = true;
      on_cfg.capture.gateway_vantage = true;
      on_cfg.capture.server_vantage = true;

      const experiment::TrialResult without = experiment::run_trial(off_cfg);
      experiment::TrialResult with = experiment::run_trial(on_cfg);

      EXPECT_GT(with.capture_packets, 0u);
      EXPECT_GT(with.capture_bytes_written, 0u);
      EXPECT_EQ(without.capture_packets, 0u);
      EXPECT_EQ(without.capture_bytes_written, 0u);
      // Every other field — timings, retransmits, verdicts, hot-path alloc
      // counts — must be bit-identical: the taps observe, never perturb.
      with.capture_packets = 0;
      with.capture_bytes_written = 0;
      EXPECT_EQ(with, without) << (attack_on ? "full attack" : "baseline");
    }
  }
}

// --- Golden corpus ---

TEST(Golden, Table2CaptureReproducesTheLiveSeed7Attack) {
  PcapReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(std::string(H2SIM_GOLDEN_DIR) + "/table2_seed7.pcapng",
                          &error))
      << error;
  EXPECT_EQ(reader.skipped_frames(), 0u);
  const auto gw = reader.find_interface("gateway");
  ASSERT_TRUE(gw.has_value());

  // The live trial the golden file was exported from.
  experiment::TrialConfig cfg;
  cfg.seed = 7;
  cfg.attack = experiment::full_attack_config();
  analysis::PacketTrace live;
  cfg.trace_inspector = [&live](const analysis::PacketTrace& t) { live = t; };
  const experiment::TrialResult r = experiment::run_trial(cfg);

  TlsRecordReassembler reassembler;
  reassembler.feed_all(
      std::span<const CapturedPacket* const>(reader.packets_on(*gw)));
  ASSERT_EQ(reassembler.trace().records().size(), live.records().size());
  EXPECT_TRUE(reassembler.trace().records() == live.records())
      << "golden capture no longer matches the live simulator";

  // Offline analysis of the committed file recovers the full Table-2
  // ranking: all 8 emblems, in the order the victim's answers produced.
  const auto detections = analysis::detect_objects(reassembler.trace());
  const auto pred = analysis::predict_sequence(detections, default_emblem_db());
  ASSERT_EQ(pred.ranking.size(), 8u);
  EXPECT_EQ(pred.ranking, r.predicted);
  for (int j = 0; j < 8; ++j) {
    EXPECT_EQ(pred.ranking[static_cast<std::size_t>(j)],
              "party" + std::to_string(r.truth[static_cast<std::size_t>(j)]))
        << "position " << j;
  }
}

// The defended golden: the same seed-7 staged attack, but the server
// deploys wire-level quantum-3000 padding. Three guarantees in one file:
// the capture still reproduces the live simulator, the on-wire bytes of
// every object of interest differ from the undefended golden by exactly
// the quantum padding rule, and offline analysis of the capture shows the
// degraded attack the defense is supposed to buy.
TEST(Golden, DefendedCaptureDiffersByExactlyThePadding) {
  PcapReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(std::string(H2SIM_GOLDEN_DIR) +
                              "/table2_defended_q3000_seed7.pcapng",
                          &error))
      << error;
  EXPECT_EQ(reader.skipped_frames(), 0u);
  const auto gw = reader.find_interface("gateway");
  ASSERT_TRUE(gw.has_value());

  constexpr std::size_t kQuantum = 3000;
  const auto rounded = [](std::size_t n) {
    return (n + kQuantum - 1) / kQuantum * kQuantum;
  };

  // Per-object-of-interest DATA bytes actually on the wire, undefended vs
  // defended, from the ground-truth wire log of the live trials.
  auto wire_bytes_by_label = [](const defense::PaddingSpec& padding,
                                analysis::PacketTrace* trace_out) {
    experiment::TrialConfig cfg;
    cfg.seed = 7;
    cfg.attack = experiment::full_attack_config();
    cfg.defense.padding = padding;
    std::map<std::string, std::size_t> primary_bytes;
    cfg.wire_log_inspector = [&](const analysis::WireLog& log) {
      // Sum DATA bytes of each label's *first* stream only: reissued copies
      // may be cancelled mid-flight, so only the primary copy is guaranteed
      // to carry the full padded object.
      std::map<std::string, std::uint32_t> first_stream;
      for (const auto& ev : log.events()) {
        if (ev.object.empty() || !ev.is_data) continue;
        auto [it, fresh] = first_stream.try_emplace(ev.object, ev.stream_id);
        if (ev.stream_id == it->second) {
          primary_bytes[ev.object] += ev.data_bytes;
        }
      }
    };
    if (trace_out) {
      cfg.trace_inspector = [trace_out](const analysis::PacketTrace& t) {
        *trace_out = t;
      };
    }
    experiment::run_trial(cfg);
    return primary_bytes;
  };

  analysis::PacketTrace live_defended;
  const auto undefended =
      wire_bytes_by_label(defense::PaddingSpec::none(), nullptr);
  const auto defended = wire_bytes_by_label(
      defense::PaddingSpec::quantum_pad(kQuantum), &live_defended);

  // (1) The committed capture is the live defended wire, record for record.
  TlsRecordReassembler reassembler;
  reassembler.feed_all(
      std::span<const CapturedPacket* const>(reader.packets_on(*gw)));
  ASSERT_EQ(reassembler.trace().records().size(),
            live_defended.records().size());
  EXPECT_TRUE(reassembler.trace().records() == live_defended.records())
      << "defended golden capture no longer matches the live simulator";

  // (2) Object for object, the defended wire is the undefended wire padded
  // by exactly the scheme: round-up-to-3000, nothing else moved.
  const std::vector<std::string> interest = {
      "html",   "party0", "party1", "party2", "party3",
      "party4", "party5", "party6", "party7"};
  for (const std::string& label : interest) {
    ASSERT_TRUE(undefended.count(label)) << label;
    ASSERT_TRUE(defended.count(label)) << label;
    EXPECT_EQ(defended.at(label), rounded(undefended.at(label))) << label;
  }

  // (3) Offline analysis of the capture sees only quantum-rounded size
  // classes for the emblems it identifies, and the merged classes cost the
  // attack accuracy relative to the undefended golden (which recovers all 8).
  const analysis::SizeDatabases padded = analysis::build_size_databases(
      web::make_isidewith_site(), defense::PaddingSpec::quantum_pad(kQuantum),
      0.02);
  const auto detections = analysis::detect_objects(reassembler.trace());
  const auto pred = analysis::predict_sequence(detections, padded.emblems);
  std::size_t identified = 0;
  for (const std::string& label : pred.ranking) {
    if (!label.empty()) ++identified;
  }
  EXPECT_LT(identified, 8u)
      << "quantum-3000 padding should merge emblem size classes";
}

// The committed corpus regenerates byte for byte: each file's trial, run
// with h2sim-capture's settings, hashes to its line of SHA256SUMS.
TEST(Golden, RegeneratedCapturesMatchSha256Sums) {
  std::map<std::string, std::string> sums;  // file name -> sha256 hex
  std::ifstream in(std::string(H2SIM_GOLDEN_DIR) + "/SHA256SUMS");
  std::string hex, file;
  while (in >> hex >> file) sums[file] = hex;
  ASSERT_EQ(sums.size(), 3u);

  experiment::TrialConfig table2;  // h2sim-capture --seed 7 --attack full
  table2.seed = 7;
  table2.attack = experiment::full_attack_config();
  experiment::TrialConfig defended = table2;  // ... --wire-pad quantum:3000
  defended.defense.padding = defense::PaddingSpec::quantum_pad(3000);
  experiment::TrialConfig baseline;  // --seed 1 --attack off --site small
  baseline.seed = 1;
  baseline.attack = experiment::TrialConfig::default_attack_off();
  baseline = small_site(std::move(baseline));

  for (auto [name, cfg] : {std::pair{"table2_seed7.pcapng", table2},
                           std::pair{"table2_defended_q3000_seed7.pcapng", defended},
                           std::pair{"baseline_small_seed1.pcapng", baseline}}) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(sums.count(name));
    cfg.capture.path = ::testing::TempDir() + "regen_" + name;
    const experiment::TrialResult r = experiment::run_trial(cfg);
    std::ifstream f(cfg.capture.path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), r.capture_bytes_written);
    EXPECT_EQ(obs::sha256_hex(bytes), sums[name]);
    fs::remove(cfg.capture.path);
  }
}

TEST(Golden, BaselineCaptureIngestsButDefeatsTheBoundaryDetector) {
  PcapReader reader;
  std::string error;
  ASSERT_TRUE(reader.open(
      std::string(H2SIM_GOLDEN_DIR) + "/baseline_small_seed1.pcapng", &error))
      << error;
  EXPECT_EQ(reader.skipped_frames(), 0u);
  const auto gw = reader.find_interface("gateway");
  ASSERT_TRUE(gw.has_value());

  TlsRecordReassembler reassembler;
  reassembler.feed_all(
      std::span<const CapturedPacket* const>(reader.packets_on(*gw)));
  EXPECT_GT(reassembler.trace().records().size(), 0u);
  EXPECT_GT(reassembler.get_count(), 0);

  // Without the attack the transfer is multiplexed, and size-based
  // identification cannot recover the full ranking — the paper's premise.
  const auto detections = analysis::detect_objects(reassembler.trace());
  const auto pred = analysis::predict_sequence(detections, default_emblem_db());
  std::size_t identified = 0;
  for (const std::string& label : pred.ranking) {
    if (!label.empty()) ++identified;
  }
  EXPECT_LT(identified, 8u);
}

}  // namespace
}  // namespace h2sim::capture
