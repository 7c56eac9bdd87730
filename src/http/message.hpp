#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "hpack/header.hpp"

namespace h2sim::http {

/// Parses a peer-supplied decimal field (status code, content-length): the
/// whole of `s` must be digits and the value at most `max`. Returns nullopt
/// for an empty string, a sign, trailing bytes or an out-of-range value.
std::optional<std::uint64_t> parse_decimal(std::string_view s, std::uint64_t max);

/// Protocol-independent request description; converts to/from HTTP/2
/// pseudo-header form and HTTP/1.1 text form.
struct Request {
  std::string method = "GET";
  std::string scheme = "https";
  std::string authority;
  std::string path = "/";
  hpack::HeaderList extra;

  hpack::HeaderList to_h2_headers() const;
  static std::optional<Request> from_h2_headers(const hpack::HeaderList& headers);

  std::string to_http1() const;
  static std::optional<Request> from_http1(const std::string& text);
};

struct Response {
  int status = 200;
  std::uint64_t content_length = 0;
  std::string content_type = "application/octet-stream";
  hpack::HeaderList extra;

  hpack::HeaderList to_h2_headers() const;
  /// Nullopt when :status is missing, or when :status or content-length is
  /// not a valid decimal.
  static std::optional<Response> from_h2_headers(const hpack::HeaderList& headers);

  std::string http1_head() const;  // status line + headers + CRLFCRLF
};

}  // namespace h2sim::http
