#include "http/http1.hpp"

#include <limits>

namespace h2sim::http {
namespace {

std::optional<std::pair<std::string, std::size_t>> take_head(std::string& buf) {
  const auto end = buf.find("\r\n\r\n");
  if (end == std::string::npos) return std::nullopt;
  std::string head = buf.substr(0, end + 4);
  buf.erase(0, end + 4);
  return std::make_pair(std::move(head), end + 4);
}

}  // namespace

Http1ServerConnection::Http1ServerConnection(tls::TlsSession& tls, Handler handler)
    : tls_(tls), handler_(std::move(handler)) {
  tls::TlsSession::Callbacks cbs;
  cbs.on_plaintext = [this](std::span<const std::uint8_t> b) { on_plaintext(b); };
  tls_.set_callbacks(std::move(cbs));
}

void Http1ServerConnection::on_plaintext(std::span<const std::uint8_t> bytes) {
  in_buf_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  // Requests are processed in order as their heads complete (GETs: no body).
  while (auto head = take_head(in_buf_)) {
    auto req = Request::from_http1(head->first);
    if (!req) continue;
    auto [resp, body] = handler_(*req);
    resp.content_length = body.size();
    const std::string head_text = resp.http1_head();
    tls_.write(std::span(reinterpret_cast<const std::uint8_t*>(head_text.data()),
                         head_text.size()));
    if (!body.empty()) tls_.write(std::span(body.data(), body.size()));
    ++requests_served_;
  }
}

Http1ClientConnection::Http1ClientConnection(tls::TlsSession& tls) : tls_(tls) {
  tls::TlsSession::Callbacks cbs;
  cbs.on_established = [this] {
    established_ = true;
    while (!queued_until_established_.empty()) {
      auto [req, cb] = std::move(queued_until_established_.front());
      queued_until_established_.pop_front();
      send_request(req, std::move(cb));
    }
  };
  cbs.on_plaintext = [this](std::span<const std::uint8_t> b) { on_plaintext(b); };
  tls_.set_callbacks(std::move(cbs));
}

void Http1ClientConnection::send_request(const Request& req, ResponseCallback cb) {
  if (!established_) {
    queued_until_established_.emplace_back(req, std::move(cb));
    return;
  }
  const std::string text = req.to_http1();
  pending_.push_back(std::move(cb));
  tls_.write(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                       text.size()));
}

void Http1ClientConnection::on_plaintext(std::span<const std::uint8_t> bytes) {
  if (broken_) return;
  in_buf_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  try_parse();
}

void Http1ClientConnection::try_parse() {
  for (;;) {
    if (!current_) {
      const auto end = in_buf_.find("\r\n\r\n");
      if (end == std::string::npos) return;
      const std::string head = in_buf_.substr(0, end + 4);
      in_buf_.erase(0, end + 4);

      // A peer's malformed status or content-length leaves no way to frame
      // the body, so the connection stops parsing instead of guessing.
      const auto malformed = [this] {
        broken_ = true;
        in_buf_.clear();
      };
      // Status line: HTTP-version SP status-code [SP reason-phrase].
      Response r;
      std::string_view status_line(head);
      status_line = status_line.substr(0, status_line.find("\r\n"));
      const auto sp = status_line.find(' ');
      if (sp == std::string_view::npos) return malformed();
      const std::string_view code = status_line.substr(sp + 1);
      const auto status = parse_decimal(code.substr(0, code.find(' ')), 999);
      if (!status) return malformed();
      r.status = static_cast<int>(*status);
      const auto cl = head.find("content-length:");
      if (cl != std::string::npos) {
        std::string_view v(head);
        v = v.substr(cl + 15, head.find("\r\n", cl) - cl - 15);
        while (!v.empty() && (v.front() == ' ' || v.front() == '\t')) v.remove_prefix(1);
        while (!v.empty() && (v.back() == ' ' || v.back() == '\t')) v.remove_suffix(1);
        const auto length =
            parse_decimal(v, std::numeric_limits<std::uint64_t>::max());
        if (!length) return malformed();
        r.content_length = *length;
      }
      const auto ct = head.find("content-type:");
      if (ct != std::string::npos) {
        auto ct_end = head.find("\r\n", ct);
        std::string v = head.substr(ct + 13, ct_end - ct - 13);
        if (!v.empty() && v.front() == ' ') v.erase(0, 1);
        r.content_type = std::move(v);
      }
      current_ = r;
      body_.clear();
    }
    const std::size_t want = current_->content_length - body_.size();
    const std::size_t take = std::min(want, in_buf_.size());
    body_.insert(body_.end(), in_buf_.begin(),
                 in_buf_.begin() + static_cast<std::ptrdiff_t>(take));
    in_buf_.erase(0, take);
    if (body_.size() < current_->content_length) return;

    if (!pending_.empty()) {
      auto cb = std::move(pending_.front());
      pending_.pop_front();
      cb(*current_, std::move(body_));
    }
    current_.reset();
    body_.clear();
  }
}

}  // namespace h2sim::http
