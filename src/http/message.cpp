#include "http/message.hpp"

#include <charconv>
#include <limits>
#include <sstream>

namespace h2sim::http {

std::optional<std::uint64_t> parse_decimal(std::string_view s, std::uint64_t max) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end || v > max) return std::nullopt;
  return v;
}

hpack::HeaderList Request::to_h2_headers() const {
  hpack::HeaderList h;
  h.push_back({":method", method});
  h.push_back({":scheme", scheme});
  h.push_back({":authority", authority});
  h.push_back({":path", path});
  h.insert(h.end(), extra.begin(), extra.end());
  return h;
}

std::optional<Request> Request::from_h2_headers(const hpack::HeaderList& headers) {
  Request r;
  bool saw_method = false, saw_path = false;
  for (const auto& f : headers) {
    if (f.name == ":method") {
      r.method = f.value;
      saw_method = true;
    } else if (f.name == ":scheme") {
      r.scheme = f.value;
    } else if (f.name == ":authority") {
      r.authority = f.value;
    } else if (f.name == ":path") {
      r.path = f.value;
      saw_path = true;
    } else if (!f.name.empty() && f.name[0] != ':') {
      r.extra.push_back(f);
    }
  }
  if (!saw_method || !saw_path) return std::nullopt;
  return r;
}

std::string Request::to_http1() const {
  std::ostringstream os;
  os << method << ' ' << path << " HTTP/1.1\r\n";
  os << "host: " << authority << "\r\n";
  for (const auto& f : extra) os << f.name << ": " << f.value << "\r\n";
  os << "\r\n";
  return os.str();
}

std::optional<Request> Request::from_http1(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line)) return std::nullopt;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  Request r;
  std::istringstream rl(line);
  std::string version;
  if (!(rl >> r.method >> r.path >> version)) return std::nullopt;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) break;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    if (!value.empty() && value.front() == ' ') value.erase(0, 1);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (name == "host") {
      r.authority = value;
    } else {
      r.extra.push_back({std::move(name), std::move(value)});
    }
  }
  return r;
}

hpack::HeaderList Response::to_h2_headers() const {
  hpack::HeaderList h;
  h.push_back({":status", std::to_string(status)});
  h.push_back({"content-length", std::to_string(content_length)});
  h.push_back({"content-type", content_type});
  h.insert(h.end(), extra.begin(), extra.end());
  return h;
}

std::optional<Response> Response::from_h2_headers(const hpack::HeaderList& headers) {
  Response r;
  bool saw_status = false;
  for (const auto& f : headers) {
    if (f.name == ":status") {
      const auto status = parse_decimal(f.value, 999);
      if (!status) return std::nullopt;
      r.status = static_cast<int>(*status);
      saw_status = true;
    } else if (f.name == "content-length") {
      const auto length =
          parse_decimal(f.value, std::numeric_limits<std::uint64_t>::max());
      if (!length) return std::nullopt;
      r.content_length = *length;
    } else if (f.name == "content-type") {
      r.content_type = f.value;
    } else if (!f.name.empty() && f.name[0] != ':') {
      r.extra.push_back(f);
    }
  }
  if (!saw_status) return std::nullopt;
  return r;
}

std::string Response::http1_head() const {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << (status == 200 ? " OK" : " ") << "\r\n";
  os << "content-length: " << content_length << "\r\n";
  os << "content-type: " << content_type << "\r\n";
  for (const auto& f : extra) os << f.name << ": " << f.value << "\r\n";
  os << "\r\n";
  return os.str();
}

}  // namespace h2sim::http
