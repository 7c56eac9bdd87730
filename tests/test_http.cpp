#include <gtest/gtest.h>

#include <memory>

#include "http/http1.hpp"
#include "http/message.hpp"
#include "net/topology.hpp"
#include "tcp/tcp_stack.hpp"
#include "tls/session.hpp"

namespace h2sim::http {
namespace {

TEST(Message, RequestToFromH2Headers) {
  Request r;
  r.method = "GET";
  r.authority = "www.isidewith.com";
  r.path = "/results";
  r.extra.push_back({"user-agent", "test"});
  const auto headers = r.to_h2_headers();
  auto back = Request::from_h2_headers(headers);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->method, "GET");
  EXPECT_EQ(back->authority, "www.isidewith.com");
  EXPECT_EQ(back->path, "/results");
  ASSERT_EQ(back->extra.size(), 1u);
  EXPECT_EQ(back->extra[0].name, "user-agent");
}

TEST(Message, RequestFromH2RequiresPseudoHeaders) {
  hpack::HeaderList incomplete = {{":scheme", "https"}};
  EXPECT_FALSE(Request::from_h2_headers(incomplete).has_value());
}

TEST(Message, ResponseToFromH2Headers) {
  Response r;
  r.status = 200;
  r.content_length = 9500;
  r.content_type = "text/html";
  auto back = Response::from_h2_headers(r.to_h2_headers());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, 200);
  EXPECT_EQ(back->content_length, 9500u);
  EXPECT_EQ(back->content_type, "text/html");
}

// Peer-supplied numbers that must be rejected, never thrown on.
struct MalformedNumber {
  const char* name;
  const char* value;
};
const MalformedNumber kMalformedNumbers[] = {
    {"letters", "abc"},  {"empty", ""},
    {"negative", "-1"},  {"trailing_garbage", "12x"},
    {"overflow", "99999999999999999999"}};
void PrintTo(const MalformedNumber& m, std::ostream* os) { *os << m.name; }

TEST(Message, ResponseFromH2RejectsMalformedStatus) {
  for (const auto& bad : kMalformedNumbers) {
    const hpack::HeaderList h = {{":status", bad.value}, {"content-length", "10"}};
    EXPECT_FALSE(Response::from_h2_headers(h).has_value()) << bad.name;
  }
}

TEST(Message, ResponseFromH2RejectsMalformedContentLength) {
  for (const auto& bad : kMalformedNumbers) {
    const hpack::HeaderList h = {{":status", "200"}, {"content-length", bad.value}};
    EXPECT_FALSE(Response::from_h2_headers(h).has_value()) << bad.name;
  }
}

TEST(Message, ParseDecimalBounds) {
  EXPECT_EQ(parse_decimal("18446744073709551615", UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(parse_decimal("999", 999), 999u);
  EXPECT_FALSE(parse_decimal("1000", 999).has_value());
  EXPECT_FALSE(parse_decimal(" 1", 999).has_value());
}

TEST(Message, Http1TextRoundTrip) {
  Request r;
  r.method = "GET";
  r.authority = "example.com";
  r.path = "/index.html";
  r.extra.push_back({"accept", "text/html"});
  const std::string text = r.to_http1();
  EXPECT_NE(text.find("GET /index.html HTTP/1.1\r\n"), std::string::npos);
  auto back = Request::from_http1(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->path, "/index.html");
  EXPECT_EQ(back->authority, "example.com");
  ASSERT_EQ(back->extra.size(), 1u);
  EXPECT_EQ(back->extra[0].value, "text/html");
}

/// HTTP/1.1 client/server over simulated TLS/TCP.
class Http1PairTest : public ::testing::Test {
 protected:
  void SetUp() override {
    topo_ = std::make_unique<net::Topology>(loop_, net::Topology::Config{}, 1);
    server_stack_ = std::make_unique<tcp::TcpStack>(
        loop_, sim::Rng(1), net::Topology::kServerNode,
        [this](net::Packet&& p) { topo_->send_from_server(std::move(p)); });
    client_stack_ = std::make_unique<tcp::TcpStack>(
        loop_, sim::Rng(2), net::Topology::client_node(0),
        [this](net::Packet&& p) { topo_->send_from_client(0, std::move(p)); });
    topo_->set_server_sink(
        [this](net::Packet&& p) { server_stack_->deliver(std::move(p)); });
    topo_->set_client_sink(0, 
        [this](net::Packet&& p) { client_stack_->deliver(std::move(p)); });

    server_stack_->listen(443, [this](tcp::TcpConnection& c) {
      server_tls_ = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kServer);
      if (!raw_response_.empty()) {
        // Hostile server: answers every request with raw_response_ verbatim.
        tls::TlsSession::Callbacks cbs;
        cbs.on_plaintext = [this](std::span<const std::uint8_t>) {
          server_tls_->write(std::span(
              reinterpret_cast<const std::uint8_t*>(raw_response_.data()),
              raw_response_.size()));
        };
        server_tls_->set_callbacks(std::move(cbs));
        return;
      }
      server_ = std::make_unique<Http1ServerConnection>(
          *server_tls_, [](const Request& req) {
            Response resp;
            resp.status = 200;
            resp.content_type = "application/octet-stream";
            const std::size_t n = req.path == "/big" ? 50000 : 1234;
            return std::make_pair(resp, std::vector<std::uint8_t>(n, 0x77));
          });
    });

    tcp::TcpConnection& c = client_stack_->connect(net::Topology::kServerNode, 443);
    client_tls_ = std::make_unique<tls::TlsSession>(c, tls::TlsSession::Role::kClient);
    client_ = std::make_unique<Http1ClientConnection>(*client_tls_);
  }

  void run(double seconds = 5) {
    loop_.run(sim::TimePoint::origin() + sim::Duration::seconds_f(seconds));
  }

  std::string raw_response_;  // set before run() to script a hostile server
  sim::EventLoop loop_;
  std::unique_ptr<net::Topology> topo_;
  std::unique_ptr<tcp::TcpStack> server_stack_;
  std::unique_ptr<tcp::TcpStack> client_stack_;
  std::unique_ptr<tls::TlsSession> server_tls_;
  std::unique_ptr<tls::TlsSession> client_tls_;
  std::unique_ptr<Http1ServerConnection> server_;
  std::unique_ptr<Http1ClientConnection> client_;
};

TEST_F(Http1PairTest, SimpleRequestResponse) {
  Request req;
  req.authority = "example.com";
  req.path = "/x";
  std::size_t got = 0;
  int status = 0;
  client_->send_request(req, [&](const Response& r, std::vector<std::uint8_t> body) {
    status = r.status;
    got = body.size();
  });
  run();
  EXPECT_EQ(status, 200);
  EXPECT_EQ(got, 1234u);
  EXPECT_EQ(server_->requests_served(), 1u);
}

TEST_F(Http1PairTest, PipelinedResponsesArriveInOrder) {
  std::vector<std::size_t> sizes;
  for (const char* p : {"/big", "/small", "/big"}) {
    Request req;
    req.authority = "example.com";
    req.path = p;
    client_->send_request(req, [&](const Response&, std::vector<std::uint8_t> body) {
      sizes.push_back(body.size());
    });
  }
  run(20);
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 50000u);  // head-of-line blocking preserved order
  EXPECT_EQ(sizes[1], 1234u);
  EXPECT_EQ(sizes[2], 50000u);
  EXPECT_TRUE(client_->idle());
}

TEST_F(Http1PairTest, RequestsBeforeHandshakeAreQueued) {
  // send_request fires before TLS establishes; must still complete.
  Request req;
  req.authority = "example.com";
  req.path = "/early";
  bool done = false;
  client_->send_request(req, [&](const Response&, std::vector<std::uint8_t>) {
    done = true;
  });
  run();
  EXPECT_TRUE(done);
}

TEST_F(Http1PairTest, HostileServerWellFormedHeadIsFramed) {
  raw_response_ = "HTTP/1.1 404 Not Found\r\ncontent-length:  4 \r\n\r\nbody";
  Request req;
  req.authority = "example.com";
  int status = 0;
  std::size_t got = 0;
  client_->send_request(req, [&](const Response& r, std::vector<std::uint8_t> b) {
    status = r.status;
    got = b.size();
  });
  run();
  EXPECT_EQ(status, 404);
  EXPECT_EQ(got, 4u);
}

// A malformed status or content-length stops the client parsing the
// connection: no response is framed from it, and nothing throws.
class Http1MalformedHead
    : public Http1PairTest,
      public ::testing::WithParamInterface<std::tuple<bool, MalformedNumber>> {};

TEST_P(Http1MalformedHead, StopsParsing) {
  const auto [in_status, bad] = GetParam();
  raw_response_ =
      in_status ? std::string("HTTP/1.1 ") + bad.value +
                      " OK\r\ncontent-length: 4\r\n\r\nbody"
                : std::string("HTTP/1.1 200 OK\r\ncontent-length: ") +
                      bad.value + "\r\n\r\nbody";
  Request req;
  req.authority = "example.com";
  bool called = false;
  client_->send_request(
      req, [&](const Response&, std::vector<std::uint8_t>) { called = true; });
  run();
  EXPECT_FALSE(called);
  EXPECT_FALSE(client_->idle());
}

INSTANTIATE_TEST_SUITE_P(
    StatusAndContentLength, Http1MalformedHead,
    ::testing::Combine(::testing::Bool(), ::testing::ValuesIn(kMalformedNumbers)),
    [](const ::testing::TestParamInfo<Http1MalformedHead::ParamType>& info) {
      return std::string(std::get<0>(info.param) ? "status_" : "content_length_") +
             std::get<1>(info.param).name;
    });

}  // namespace
}  // namespace h2sim::http
