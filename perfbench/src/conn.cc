#include "conn.h"

#include <charconv>

namespace perfbench {

namespace ls = lazyxml::server;

int64_t SpanLog::Add(uint64_t request_id, int64_t parent, const char* name,
                     Clock::time_point start, Clock::time_point end) {
  spans.push_back(Span{request_id, parent, name, MicrosBetween(epoch, start),
                       MicrosBetween(epoch, end)});
  return static_cast<int64_t>(spans.size()) - 1;
}

int64_t Reply::Field(std::string_view key) const {
  const std::string_view d = detail;
  size_t pos = 0;
  while ((pos = d.find(key, pos)) != std::string_view::npos) {
    const size_t num = pos + key.size() + 1;
    if ((pos == 0 || d[pos - 1] == ' ') && num <= d.size() &&
        d[num - 1] == ' ') {
      int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(d.data() + num, d.data() + d.size(), v);
      if (ec == std::errc()) return v;
    }
    pos += key.size();
  }
  return -1;
}

Conn::Conn(std::string socket_path, int timeout_ms)
    : path_(std::move(socket_path)) {
  options_.connect_timeout_ms = timeout_ms;
  options_.io_timeout_ms = timeout_ms;
  options_.call_timeout_ms = timeout_ms;
  options_.max_attempts = 1;
}

Reply Conn::Call(std::string_view payload) {
  Reply r;
  const Clock::time_point t0 = Clock::now();
  lazyxml::Status dialed;
  if (!client_.has_value()) {
    auto c = ls::Client::ConnectUnixEndpoint(path_, options_);
    if (c.ok()) {
      client_.emplace(std::move(c).ValueOrDie());
    } else {
      dialed = c.status();
    }
  } else if (!client_->connected()) {
    dialed = client_->Reconnect();
  }
  lazyxml::Result<ls::ParsedResponse> got = dialed;
  if (dialed.ok()) got = client_->Call(payload);
  r.rtt_us = MicrosBetween(t0, Clock::now());
  if (!got.ok()) {
    r.transport = true;
    r.code = lazyxml::StatusCodeToString(got.status().code());
    r.detail = got.status().message();
    return r;
  }
  ls::ParsedResponse& p = got.ValueOrDie();
  r.ok = p.ok;
  r.code = std::move(p.code);
  r.detail = std::move(p.detail);
  r.body = std::move(p.body);
  return r;
}

}  // namespace perfbench
