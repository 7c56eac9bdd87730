#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hpack/decoder.hpp"
#include "hpack/encoder.hpp"
#include "hpack/huffman.hpp"
#include "hpack/integer.hpp"
#include "hpack/static_table.hpp"

namespace h2sim::hpack {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> xs) {
  std::vector<std::uint8_t> out;
  for (int x : xs) out.push_back(static_cast<std::uint8_t>(x));
  return out;
}

// --- RFC 7541 §C.1 integer examples ---

TEST(HpackInteger, EncodeTenWithFiveBitPrefix) {
  std::vector<std::uint8_t> out;
  encode_integer(10, 5, 0, out);
  EXPECT_EQ(out, bytes({0x0a}));
}

TEST(HpackInteger, Encode1337WithFiveBitPrefix) {
  std::vector<std::uint8_t> out;
  encode_integer(1337, 5, 0, out);
  EXPECT_EQ(out, bytes({0x1f, 0x9a, 0x0a}));
}

TEST(HpackInteger, Encode42AtOctetBoundary) {
  std::vector<std::uint8_t> out;
  encode_integer(42, 8, 0, out);
  EXPECT_EQ(out, bytes({0x2a}));
}

TEST(HpackInteger, DecodeMatchesEncode) {
  for (std::uint64_t v : {0ull, 1ull, 30ull, 31ull, 32ull, 127ull, 128ull,
                          1337ull, 65535ull, 1000000ull}) {
    for (int prefix = 1; prefix <= 8; ++prefix) {
      std::vector<std::uint8_t> out;
      encode_integer(v, prefix, 0, out);
      std::size_t pos = 0;
      auto back = decode_integer(out, pos, prefix);
      ASSERT_TRUE(back.has_value()) << v << " prefix " << prefix;
      EXPECT_EQ(*back, v);
      EXPECT_EQ(pos, out.size());
    }
  }
}

TEST(HpackInteger, TruncatedInputFails) {
  std::vector<std::uint8_t> out;
  encode_integer(1337, 5, 0, out);
  out.pop_back();
  std::size_t pos = 0;
  EXPECT_FALSE(decode_integer(out, pos, 5).has_value());
}

TEST(HpackInteger, OverflowRejected) {
  // 0x1f then ten 0xff continuation bytes: way past 2^62.
  std::vector<std::uint8_t> in = {0x1f};
  for (int i = 0; i < 10; ++i) in.push_back(0xff);
  in.push_back(0x7f);
  std::size_t pos = 0;
  EXPECT_FALSE(decode_integer(in, pos, 5).has_value());
}

// --- RFC 7541 Appendix C Huffman vectors ---

std::string hexify(const std::string& s) {
  static const char* d = "0123456789abcdef";
  std::string out;
  for (unsigned char c : s) {
    out.push_back(d[c >> 4]);
    out.push_back(d[c & 0xf]);
  }
  return out;
}

TEST(Huffman, RfcVectorWwwExampleCom) {
  std::string enc;
  huffman::encode("www.example.com", enc);
  EXPECT_EQ(hexify(enc), "f1e3c2e5f23a6ba0ab90f4ff");
}

TEST(Huffman, RfcVectorNoCache) {
  std::string enc;
  huffman::encode("no-cache", enc);
  EXPECT_EQ(hexify(enc), "a8eb10649cbf");
}

TEST(Huffman, RfcVectorCustomKey) {
  std::string enc;
  huffman::encode("custom-key", enc);
  EXPECT_EQ(hexify(enc), "25a849e95ba97d7f");
}

TEST(Huffman, RfcVectorCustomValue) {
  std::string enc;
  huffman::encode("custom-value", enc);
  EXPECT_EQ(hexify(enc), "25a849e95bb8e8b4bf");
}

TEST(Huffman, RfcVectorDate) {
  std::string enc;
  huffman::encode("Mon, 21 Oct 2013 20:13:21 GMT", enc);
  EXPECT_EQ(hexify(enc), "d07abe941054d444a8200595040b8166e082a62d1bff");
}

TEST(Huffman, RfcVectorUrl) {
  std::string enc;
  huffman::encode("https://www.example.com", enc);
  EXPECT_EQ(hexify(enc), "9d29ad171863c78f0b97c8e9ae82ae43d3");
}

TEST(Huffman, RoundTripAllByteValues) {
  std::string s;
  for (int c = 0; c < 256; ++c) s.push_back(static_cast<char>(c));
  std::string enc;
  huffman::encode(s, enc);
  auto dec = huffman::decode(
      std::span(reinterpret_cast<const std::uint8_t*>(enc.data()), enc.size()));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, s);
}

TEST(Huffman, EncodedSizeMatchesEncodeOutput) {
  for (const char* s : {"", "a", "hello world", "x-requested-with",
                        "ALL CAPS AND 123 digits !@#"}) {
    std::string enc;
    huffman::encode(s, enc);
    EXPECT_EQ(enc.size(), huffman::encoded_size(s)) << s;
  }
}

TEST(Huffman, InvalidPaddingRejected) {
  // "0" encodes as 00000 (5 bits); pad must be all ones. Craft 0x00: symbol
  // '0' then 3 zero pad bits -> invalid.
  const std::uint8_t bad[] = {0x00};
  EXPECT_FALSE(huffman::decode(std::span(bad, 1)).has_value());
}

TEST(Huffman, DecodeEmptyIsEmpty) {
  auto dec = huffman::decode({});
  ASSERT_TRUE(dec.has_value());
  EXPECT_TRUE(dec->empty());
}

// --- Static table ---

TEST(StaticTable, KnownEntries) {
  EXPECT_EQ(static_table::at(1).name, ":authority");
  EXPECT_EQ(static_table::at(2).name, ":method");
  EXPECT_EQ(static_table::at(2).value, "GET");
  EXPECT_EQ(static_table::at(8).name, ":status");
  EXPECT_EQ(static_table::at(8).value, "200");
  EXPECT_EQ(static_table::at(61).name, "www-authenticate");
}

TEST(StaticTable, FindPrefersFullMatch) {
  const auto m = static_table::find(":method", "POST");
  EXPECT_EQ(m.index, 3u);
  EXPECT_TRUE(m.value_matched);
  const auto n = static_table::find(":method", "DELETE");
  EXPECT_EQ(n.index, 2u);  // first name-only match
  EXPECT_FALSE(n.value_matched);
  EXPECT_EQ(static_table::find("x-nonexistent", "").index, 0u);
}

// --- Dynamic table ---

TEST(DynamicTable, InsertAndIndex) {
  DynamicTable t(4096);
  t.insert({"a", "1"});
  t.insert({"b", "2"});
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.at(1).name, "b");  // newest first
  EXPECT_EQ(t.at(2).name, "a");
}

TEST(DynamicTable, EvictionOnBudget) {
  DynamicTable t(100);  // each small entry costs 32 + name + value
  t.insert({"aaaa", "1111"});  // 40
  t.insert({"bbbb", "2222"});  // 40 -> total 80
  t.insert({"cccc", "3333"});  // would be 120 -> evict oldest
  EXPECT_EQ(t.entry_count(), 2u);
  EXPECT_EQ(t.at(2).name, "bbbb");
}

TEST(DynamicTable, OversizeEntryClearsTable) {
  DynamicTable t(64);
  t.insert({"a", "1"});
  t.insert({std::string(100, 'x'), "v"});
  EXPECT_EQ(t.entry_count(), 0u);
}

TEST(DynamicTable, ResizeEvicts) {
  DynamicTable t(4096);
  t.insert({"aaaa", "1111"});
  t.insert({"bbbb", "2222"});
  t.set_max_size(50);
  EXPECT_EQ(t.entry_count(), 1u);
  EXPECT_EQ(t.at(1).name, "bbbb");
}

// --- Encoder/decoder round trips (RFC 7541 §C.3/C.4-style flows) ---

HeaderList request_headers(const std::string& path) {
  return {
      {":method", "GET"},       {":scheme", "https"},
      {":authority", "www.example.com"}, {":path", path},
      {"user-agent", "test-agent/1.0"},
  };
}

TEST(HpackCodec, RoundTripSingleBlock) {
  Encoder enc;
  Decoder dec;
  const HeaderList in = request_headers("/index.html");
  auto block = enc.encode(in);
  auto out = dec.decode(block);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(HpackCodec, DynamicTableShrinksLaterBlocks) {
  Encoder enc;
  Decoder dec;
  const HeaderList first = request_headers("/a");
  const HeaderList second = request_headers("/b");
  const auto block1 = enc.encode(first);
  const auto block2 = enc.encode(second);
  // Repeated fields index into the dynamic table: second block much smaller.
  EXPECT_LT(block2.size(), block1.size() / 2);
  ASSERT_EQ(dec.decode(block1).value(), first);
  ASSERT_EQ(dec.decode(block2).value(), second);
}

TEST(HpackCodec, SensitiveFieldsNeverIndexed) {
  Encoder enc;
  Decoder dec;
  HeaderList in = {{":method", "GET"}, {"cookie", "secret=1"}};
  auto b1 = enc.encode(in);
  ASSERT_EQ(dec.decode(b1).value(), in);
  // Encoding again: cookie must not have entered either dynamic table.
  EXPECT_EQ(enc.table().entry_count(), 0u);
  EXPECT_EQ(dec.table().entry_count(), 0u);
  auto b2 = enc.encode(in);
  ASSERT_EQ(dec.decode(b2).value(), in);
  EXPECT_EQ(b1.size(), b2.size());  // no cross-block compression for cookie
}

TEST(HpackCodec, StatefulOrderMatters) {
  Encoder enc;
  Decoder dec;
  const auto b1 = enc.encode(request_headers("/a"));
  const auto b2 = enc.encode(request_headers("/b"));
  ASSERT_TRUE(dec.decode(b1).has_value());
  ASSERT_TRUE(dec.decode(b2).has_value());
}

TEST(HpackCodec, TableSizeUpdateRoundTrip) {
  Encoder enc;
  Decoder dec;
  enc.encode(request_headers("/warm"));
  dec.decode(enc.encode(request_headers("/warm2")));
  enc.set_table_size(0);  // flush
  const auto block = enc.encode(request_headers("/after"));
  auto out = dec.decode(block);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(dec.table().entry_count(), 0u);
}

TEST(HpackDecoder, RejectsGarbage) {
  Decoder dec;
  // Indexed field 0 is invalid.
  EXPECT_FALSE(dec.decode(bytes({0x80})).has_value());
  // Truncated literal.
  EXPECT_FALSE(dec.decode(bytes({0x40, 0x05, 'a'})).has_value());
  // Index beyond both tables.
  EXPECT_FALSE(dec.decode(bytes({0xff, 0xff, 0x7f})).has_value());
}

TEST(HpackDecoder, RejectsTableSizeUpdateAfterField) {
  Decoder dec;
  // Indexed :method GET (0x82) followed by a size update (0x20).
  EXPECT_FALSE(dec.decode(bytes({0x82, 0x20})).has_value());
}

// RFC 7541 §4.2/§6.3: a block may open with a size update, but not one past
// the limit the decoder's side advertised (4096 unless set otherwise).
TEST(HpackDecoder, RejectsTableSizeUpdatePastAdvertisedAtBlockStart) {
  Decoder dec;
  std::vector<std::uint8_t> block;
  encode_integer(4097, 5, 0x20, block);
  block.push_back(0x82);  // :method GET
  EXPECT_FALSE(dec.decode(block).has_value());

  Decoder at_limit;
  block.clear();
  encode_integer(4096, 5, 0x20, block);
  block.push_back(0x82);
  EXPECT_TRUE(at_limit.decode(block).has_value());
}

TEST(HpackDecoder, RejectsOversizeTableUpdate) {
  Decoder dec;
  dec.set_max_table_size(4096);
  // Size update to 8192 > allowed.
  std::vector<std::uint8_t> block;
  encode_integer(8192, 5, 0x20, block);
  EXPECT_FALSE(dec.decode(block).has_value());
}

// RFC 7541 §C.3.1: the first request with raw (non-Huffman) literals. The
// encoder Huffman-codes every literal that shrinks (§C.4.1 below), but a peer
// may send raw ones, and the decoder must read them.
TEST(HpackCodec, RfcC31FirstRequest) {
  const std::vector<std::uint8_t> block = {
      0x82, 0x86, 0x84, 0x41, 0x0f, 0x77, 0x77, 0x77, 0x2e, 0x65,
      0x78, 0x61, 0x6d, 0x70, 0x6c, 0x65, 0x2e, 0x63, 0x6f, 0x6d};
  Decoder dec;
  const auto out = dec.decode(block);
  ASSERT_TRUE(out.has_value());
  const HeaderList expected = {{":method", "GET"},
                               {":scheme", "http"},
                               {":path", "/"},
                               {":authority", "www.example.com"}};
  EXPECT_EQ(*out, expected);
}

// RFC 7541 §C.4.1 with huffman.
TEST(HpackCodec, RfcC41FirstRequestHuffman) {
  Encoder enc;
  const HeaderList in = {{":method", "GET"},
                         {":scheme", "http"},
                         {":path", "/"},
                         {":authority", "www.example.com"}};
  const auto block = enc.encode(in);
  const std::vector<std::uint8_t> expected = {
      0x82, 0x86, 0x84, 0x41, 0x8c, 0xf1, 0xe3, 0xc2, 0xe5, 0xf2,
      0x3a, 0x6b, 0xa0, 0xab, 0x90, 0xf4, 0xff};
  EXPECT_EQ(block, expected);
}

}  // namespace
}  // namespace h2sim::hpack
