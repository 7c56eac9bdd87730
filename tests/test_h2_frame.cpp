#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "h2/frame.hpp"
#include "sim/random.hpp"

namespace h2sim::h2 {
namespace {

/// An owning copy of a decoded frame, for comparisons that outlive the
/// decoder's borrowed payload.
struct OwnedFrame {
  FrameType type;
  std::uint8_t flags;
  std::uint32_t stream_id;
  std::vector<std::uint8_t> payload;

  explicit OwnedFrame(const FrameView& f)
      : type(f.type), flags(f.flags), stream_id(f.stream_id),
        payload(f.payload.begin(), f.payload.end()) {}
  bool operator==(const OwnedFrame&) const = default;
};

std::vector<OwnedFrame> drain(FrameDecoder& dec) {
  std::vector<OwnedFrame> out;
  while (const auto f = dec.next()) out.emplace_back(*f);
  return out;
}

TEST(FrameCodec, HeaderRoundTrip) {
  const std::vector<std::uint8_t> payload = {9, 8, 7};
  const auto wire = serialize_frame({FrameType::kData, flags::kEndStream, 12345, payload});
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 3);

  FrameDecoder dec;
  dec.feed(wire);
  auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->type, FrameType::kData);
  EXPECT_EQ(out->flags, flags::kEndStream);
  EXPECT_EQ(out->stream_id, 12345u);
  EXPECT_TRUE(std::ranges::equal(out->payload, payload));
}

TEST(FrameCodec, ReservedBitMaskedOff) {
  const auto wire = serialize_frame({FrameType::kData, 0, 0x80000001u, {}});  // high bit
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_EQ(dec.next()->stream_id, 1u);
}

TEST(FrameCodec, IncrementalFeed) {
  const std::vector<std::uint8_t> payload(300, 0x11);
  const auto wire = serialize_frame({FrameType::kHeaders, 0, 0, payload});
  FrameDecoder dec;
  for (std::size_t i = 0; i < wire.size(); i += 7) {
    const std::size_t n = std::min<std::size_t>(7, wire.size() - i);
    dec.feed(std::span(wire.data() + i, n));
  }
  auto out = dec.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->payload.size(), 300u);
}

TEST(FrameCodec, OversizedFrameSetsError) {
  const std::vector<std::uint8_t> payload(20000, 1);  // > default 16384
  const auto wire = serialize_frame({FrameType::kData, 0, 0, payload});
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.error());
}

// The length is refused from the 9-byte header alone: no payload byte is
// needed, and a header split anywhere is refused as soon as it is whole.
TEST(FrameCodec, OverlongLengthRefusedFromSplitHeader) {
  const std::vector<std::uint8_t> payload(kDefaultMaxFrameSize + 1, 0);
  const auto wire = serialize_frame({FrameType::kData, 0, 1, payload});
  for (std::size_t cut = 1; cut < kFrameHeaderBytes; ++cut) {
    SCOPED_TRACE(cut);
    FrameDecoder dec;
    dec.feed(std::span(wire).first(cut));
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_FALSE(dec.error());
    dec.feed(std::span(wire).subspan(cut, kFrameHeaderBytes - cut));
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_TRUE(dec.error());
  }
}

TEST(FrameCodec, MaxFrameSizeAdjustable) {
  const std::vector<std::uint8_t> payload(20000, 1);
  const auto wire = serialize_frame({FrameType::kData, 0, 0, payload});
  FrameDecoder dec;
  dec.set_max_frame_size(1 << 20);
  dec.feed(wire);
  EXPECT_TRUE(dec.next().has_value());
  EXPECT_FALSE(dec.error());
}

// Property: random valid frames, 0-byte and max-size ones included, fed at
// random split points decode exactly as the same bytes fed whole.
TEST(FrameCodec, SplitFeedsDecodeAsOneWholeFeed) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < 60; ++i) {
      std::size_t len = rng.uniform(2000);
      if (i % 10 == 0) len = 0;
      if (i % 10 == 5) len = kDefaultMaxFrameSize;
      std::vector<std::uint8_t> payload(len);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(256));
      const auto wire = serialize_frame(
          {static_cast<FrameType>(rng.uniform(10)),
           static_cast<std::uint8_t>(rng.uniform(256)),
           static_cast<std::uint32_t>(rng.uniform(1u << 31)), payload});
      stream.insert(stream.end(), wire.begin(), wire.end());
    }

    FrameDecoder whole;
    whole.feed(stream);
    const std::vector<OwnedFrame> expected = drain(whole);
    ASSERT_EQ(expected.size(), 60u);
    EXPECT_FALSE(whole.error());

    FrameDecoder split;
    std::vector<OwnedFrame> got;
    for (std::size_t pos = 0; pos < stream.size();) {
      const std::size_t n =
          std::min<std::size_t>(rng.uniform(3000), stream.size() - pos);
      split.feed(std::span(stream).subspan(pos, n));
      pos += n;
      for (OwnedFrame& f : drain(split)) got.push_back(std::move(f));
    }
    EXPECT_EQ(got, expected);
    EXPECT_FALSE(split.error());
  }
}

// 10^4 frames fed in 1.5-frame pieces, so a partial frame is always left
// behind: the consumed prefix is reclaimed and storage stays bounded.
TEST(FrameCodec, BufferStaysBoundedOverTenThousandFrames) {
  const std::vector<std::uint8_t> payload(1000, 0x5a);
  const auto one = serialize_frame({FrameType::kData, 0, 1, payload});
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 3; ++i) stream.insert(stream.end(), one.begin(), one.end());
  const std::size_t piece = stream.size() / 2;  // 1.5 frames

  FrameDecoder dec;
  std::size_t frames = 0;
  std::size_t peak = 0;
  std::size_t pos = 0;
  while (frames < 10000) {
    const std::size_t n = std::min(piece, stream.size() - pos);
    dec.feed(std::span(stream).subspan(pos, n));
    pos = (pos + n) % stream.size();
    while (const auto f = dec.next()) {
      ASSERT_EQ(f->payload.size(), payload.size());
      ++frames;
    }
    peak = std::max(peak, dec.storage_bytes());
  }
  EXPECT_LE(peak, 4096 + 3 * one.size());
}

TEST(FrameCodec, PaddingStrippedPerRfc) {
  // Pad Length 2, body {7, 8}, two padding bytes.
  const std::vector<std::uint8_t> padded = {2, 7, 8, 0, 0};
  const auto body = unpadded_payload({FrameType::kData, flags::kPadded, 1, padded});
  ASSERT_TRUE(body.has_value());
  EXPECT_TRUE(std::ranges::equal(*body, std::vector<std::uint8_t>{7, 8}));
  // Without the flag the payload is the body, Pad Length byte and all.
  EXPECT_EQ(unpadded_payload({FrameType::kData, 0, 1, padded})->size(), 5u);
  // Padding that fills the rest exactly leaves an empty body.
  const std::vector<std::uint8_t> all_pad = {4, 0, 0, 0, 0};
  EXPECT_TRUE(unpadded_payload({FrameType::kData, flags::kPadded, 1, all_pad})->empty());
  // A pad length at or past the payload end, or no Pad Length byte at all.
  const std::vector<std::uint8_t> at_end = {5, 0, 0, 0, 0};
  const std::vector<std::uint8_t> past_end = {200, 1};
  EXPECT_FALSE(unpadded_payload({FrameType::kData, flags::kPadded, 1, at_end}));
  EXPECT_FALSE(unpadded_payload({FrameType::kData, flags::kPadded, 1, past_end}));
  EXPECT_FALSE(unpadded_payload({FrameType::kData, flags::kPadded, 1, {}}));
}

TEST(SettingsCodec, RoundTrip) {
  const SettingsEntry entries[] = {
      {SettingId::kInitialWindowSize, 131072},
      {SettingId::kMaxFrameSize, 16384},
      {SettingId::kEnablePush, 0},
  };
  const auto payload = encode_settings(entries);
  EXPECT_EQ(payload.size(), 18u);
  auto out = parse_settings(payload);
  ASSERT_TRUE(out.has_value());
  ASSERT_EQ(out->size(), 3u);
  EXPECT_EQ((*out)[0].id, SettingId::kInitialWindowSize);
  EXPECT_EQ((*out)[0].value, 131072u);
}

TEST(SettingsCodec, RejectsBadLength) {
  std::vector<std::uint8_t> bad(7, 0);
  EXPECT_FALSE(parse_settings(bad).has_value());
}

TEST(RstCodec, RoundTrip) {
  const auto payload = encode_rst_stream(ErrorCode::kCancel);
  auto out = parse_rst_stream(payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, ErrorCode::kCancel);
  EXPECT_FALSE(parse_rst_stream({}).has_value());
}

TEST(WindowUpdateCodec, RoundTrip) {
  const auto payload = encode_window_update(65535);
  auto out = parse_window_update(payload);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, 65535u);
}

TEST(GoawayCodec, RoundTrip) {
  GoawayPayload g;
  g.last_stream_id = 41;
  g.error = ErrorCode::kEnhanceYourCalm;
  g.debug = "slow down";
  auto out = parse_goaway(encode_goaway(g));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->last_stream_id, 41u);
  EXPECT_EQ(out->error, ErrorCode::kEnhanceYourCalm);
  EXPECT_EQ(out->debug, "slow down");
}

TEST(PriorityCodec, RoundTrip) {
  PriorityPayload p;
  p.dependency = 3;
  p.exclusive = true;
  p.weight = 200;
  auto out = parse_priority(encode_priority(p));
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->dependency, 3u);
  EXPECT_TRUE(out->exclusive);
  EXPECT_EQ(out->weight, 200);
}

TEST(PayloadCodecs, RejectMalformedLengths) {
  for (std::size_t n = 0; n < 8; ++n) {
    EXPECT_FALSE(parse_goaway(std::vector<std::uint8_t>(n, 0)).has_value()) << n;
  }
  EXPECT_TRUE(parse_goaway(std::vector<std::uint8_t>(8, 0)).has_value());
  for (std::size_t n : {0u, 4u, 6u, 9u}) {
    EXPECT_FALSE(parse_priority(std::vector<std::uint8_t>(n, 0)).has_value()) << n;
  }
  for (std::size_t n : {0u, 3u, 5u, 8u}) {
    EXPECT_FALSE(parse_window_update(std::vector<std::uint8_t>(n, 0)).has_value()) << n;
  }
}

TEST(Preface, MatchesRfc) {
  const auto p = client_preface();
  ASSERT_EQ(p.size(), 24u);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p.data()), 3), "PRI");
}

TEST(FrameNames, AllNamed) {
  EXPECT_STREQ(to_string(FrameType::kData), "DATA");
  EXPECT_STREQ(to_string(FrameType::kRstStream), "RST_STREAM");
  EXPECT_STREQ(to_string(ErrorCode::kFlowControlError), "FLOW_CONTROL_ERROR");
}

}  // namespace
}  // namespace h2sim::h2
