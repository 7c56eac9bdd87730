#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "http/message.hpp"
#include "tls/session.hpp"

namespace h2sim::http {

/// Minimal HTTP/1.1 server over TLS: requests are answered strictly in
/// arrival order on one connection (no multiplexing, head-of-line blocking
/// intact). This is the baseline the fingerprinting literature attacks and
/// the contrast case for the paper's HTTP/2 study.
class Http1ServerConnection {
 public:
  /// Handler returns the response + full body for a request.
  using Handler =
      std::function<std::pair<Response, std::vector<std::uint8_t>>(const Request&)>;

  Http1ServerConnection(tls::TlsSession& tls, Handler handler);

  std::uint64_t requests_served() const { return requests_served_; }

 private:
  void on_plaintext(std::span<const std::uint8_t> bytes);

  tls::TlsSession& tls_;
  Handler handler_;
  std::string in_buf_;
  std::uint64_t requests_served_ = 0;
};

/// Minimal HTTP/1.1 client over TLS with pipelining support: responses are
/// matched to requests FIFO.
class Http1ClientConnection {
 public:
  using ResponseCallback =
      std::function<void(const Response&, std::vector<std::uint8_t> body)>;

  explicit Http1ClientConnection(tls::TlsSession& tls);

  void send_request(const Request& req, ResponseCallback cb);
  bool idle() const { return pending_.empty(); }

 private:
  void on_plaintext(std::span<const std::uint8_t> bytes);
  void try_parse();

  tls::TlsSession& tls_;
  std::string in_buf_;
  std::deque<ResponseCallback> pending_;
  // Parse state for the in-progress response.
  std::optional<Response> current_;
  std::vector<std::uint8_t> body_;
  std::deque<std::pair<Request, ResponseCallback>> queued_until_established_;
  bool established_ = false;
  bool broken_ = false;  // malformed response head: stop parsing for good
};

}  // namespace h2sim::http
