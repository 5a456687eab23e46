#include "server/client.h"

#include <charconv>
#include <cmath>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "obs/metrics.h"

namespace lazyxml {
namespace server {

namespace {

/// Pulls the numeric value following `key` out of an OK detail line like
/// "SID 7 GP 1024 LEN 33".
Result<uint64_t> DetailField(std::string_view detail, std::string_view key) {
  size_t pos = 0;
  while (pos < detail.size()) {
    while (pos < detail.size() && detail[pos] == ' ') ++pos;
    size_t end = detail.find(' ', pos);
    if (end == std::string_view::npos) end = detail.size();
    std::string_view token = detail.substr(pos, end - pos);
    pos = end + 1;
    if (token != key) continue;
    while (pos < detail.size() && detail[pos] == ' ') ++pos;
    end = detail.find(' ', pos);
    if (end == std::string_view::npos) end = detail.size();
    std::string_view num = detail.substr(pos, end - pos);
    uint64_t value = 0;
    auto [p, ec] = std::from_chars(num.data(), num.data() + num.size(), value);
    if (ec != std::errc() || p != num.data() + num.size()) {
      return Status::InvalidArgument("malformed numeric field '" +
                                     std::string(key) + "' in response '" +
                                     std::string(detail) + "'");
    }
    return value;
  }
  return Status::InvalidArgument("field '" + std::string(key) +
                                 "' missing from response '" +
                                 std::string(detail) + "'");
}

/// Parses the "sid start" rows of a PATH/TWIG response body.
Status ParseRows(std::string_view body,
                 std::vector<std::pair<uint64_t, uint64_t>>* rows_out) {
  for (std::string_view line : Split(body, '\n')) {
    if (line.empty()) continue;
    const size_t sp = line.find(' ');
    if (sp == std::string_view::npos) {
      return Status::InvalidArgument("malformed result row '" +
                                     std::string(line) + "'");
    }
    uint64_t sid = 0;
    uint64_t start = 0;
    std::string_view a = line.substr(0, sp);
    std::string_view b = line.substr(sp + 1);
    auto [pa, ea] = std::from_chars(a.data(), a.data() + a.size(), sid);
    auto [pb, eb] = std::from_chars(b.data(), b.data() + b.size(), start);
    if (ea != std::errc() || eb != std::errc() ||
        pa != a.data() + a.size() || pb != b.data() + b.size()) {
      return Status::InvalidArgument("malformed result row '" +
                                     std::string(line) + "'");
    }
    rows_out->emplace_back(sid, start);
  }
  return Status::OK();
}

}  // namespace

using Clock = std::chrono::steady_clock;

Client::Client(UniqueFd fd, ClientOptions options, Endpoint endpoint)
    : fd_(std::move(fd)),
      options_(std::move(options)),
      endpoint_(std::move(endpoint)),
      decoder_(options_.wire),
      jitter_rng_(options_.jitter_seed) {}

Result<Client> Client::ConnectTcpEndpoint(const std::string& host,
                                          uint16_t port,
                                          ClientOptions options) {
  LAZYXML_ASSIGN_OR_RETURN(
      UniqueFd fd, ConnectTcpTimed(host, port, options.connect_timeout_ms));
  Endpoint ep;
  ep.tcp = true;
  ep.host = host;
  ep.port = port;
  return Client(std::move(fd), std::move(options), std::move(ep));
}

Result<Client> Client::ConnectUnixEndpoint(const std::string& path,
                                           ClientOptions options) {
  LAZYXML_ASSIGN_OR_RETURN(
      UniqueFd fd, ConnectUnixTimed(path, options.connect_timeout_ms));
  Endpoint ep;
  ep.path = path;
  return Client(std::move(fd), std::move(options), std::move(ep));
}

Status Client::Reconnect() {
  LAZYXML_METRIC_COUNTER(reconnects, "client.reconnects_total");
  fd_.reset();
  decoder_ = FrameDecoder(options_.wire);  // a fresh byte stream
  Result<UniqueFd> fd =
      endpoint_.tcp
          ? ConnectTcpTimed(endpoint_.host, endpoint_.port,
                            options_.connect_timeout_ms)
          : ConnectUnixTimed(endpoint_.path, options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(fd).ValueOrDie();
  reconnects.Increment();
  return Status::OK();
}

int Client::WaitBudgetMs(Clock::time_point deadline) const {
  int budget = options_.io_timeout_ms > 0 ? options_.io_timeout_ms : -1;
  if (deadline != Clock::time_point::max()) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    // Never 0: WaitReadable/WaitWritable treat <= 0 as "wait forever".
    if (left < 1) left = 1;
    if (budget < 0 || left < budget) budget = static_cast<int>(left);
  }
  return budget;
}

Status Client::WriteAll(std::string_view bytes, Clock::time_point deadline) {
  LAZYXML_METRIC_COUNTER(timeouts, "client.timeouts_total");
  size_t off = 0;
  while (off < bytes.size()) {
    auto w = WriteSome(fd_.get(), bytes.data() + off, bytes.size() - off);
    if (!w.ok()) {
      fd_.reset();
      return w.status();
    }
    off += w.ValueOrDie().n;
    if (off == bytes.size()) break;
    if (w.ValueOrDie().would_block) {
      const int budget = WaitBudgetMs(deadline);
      auto ready = WaitWritable(fd_.get(), budget);
      if (!ready.ok()) {
        fd_.reset();
        return ready.status();
      }
      if (!ready.ValueOrDie()) {
        // The frame is part-sent: this connection's byte stream is
        // poisoned, drop it so a retry starts clean.
        timeouts.Increment();
        fd_.reset();
        return Status::DeadlineExceeded("write timed out after " +
                                        std::to_string(budget) + "ms");
      }
    }
  }
  return Status::OK();
}

Result<ParsedResponse> Client::Call(std::string_view payload) {
  LAZYXML_METRIC_COUNTER(timeouts, "client.timeouts_total");
  if (!fd_.valid()) {
    return Status::Unavailable("client is not connected");
  }
  const Clock::time_point deadline =
      options_.call_timeout_ms > 0
          ? Clock::now() + std::chrono::milliseconds(options_.call_timeout_ms)
          : Clock::time_point::max();
  LAZYXML_ASSIGN_OR_RETURN(
      std::string frame,
      EncodeFrame(FrameType::kRequest, payload, options_.wire));
  LAZYXML_RETURN_NOT_OK(WriteAll(frame, deadline));
  char buf[4096];
  for (;;) {
    auto next = decoder_.Next();
    LAZYXML_RETURN_NOT_OK(next.status());
    if (next.ValueOrDie().has_value()) {
      Frame f = std::move(next.ValueOrDie().value());
      if (f.type != FrameType::kResponse) {
        return Status::InvalidArgument("server sent a non-response frame");
      }
      return ParseResponse(f.payload);
    }
    auto r = ReadSome(fd_.get(), buf, sizeof buf);
    if (!r.ok()) {
      fd_.reset();
      return r.status();
    }
    if (r.ValueOrDie().n > 0) {
      decoder_.Feed(std::string_view(buf, r.ValueOrDie().n));
      continue;
    }
    if (r.ValueOrDie().eof) {
      fd_.reset();
      return Status::Unavailable("server closed the connection mid-response");
    }
    if (r.ValueOrDie().would_block) {
      const int budget = WaitBudgetMs(deadline);
      auto ready = WaitReadable(fd_.get(), budget);
      if (!ready.ok()) {
        fd_.reset();
        return ready.status();
      }
      if (!ready.ValueOrDie()) {
        // An unread response may still arrive later and would desync
        // request/response matching — poison the connection.
        timeouts.Increment();
        fd_.reset();
        return Status::DeadlineExceeded("response timed out after " +
                                        std::to_string(budget) + "ms");
      }
    }
  }
}

Result<ParsedResponse> Client::CallChecked(std::string_view payload) {
  LAZYXML_ASSIGN_OR_RETURN(ParsedResponse resp, Call(payload));
  if (!resp.ok) return resp.ToStatus();
  return resp;
}

void Client::SleepBackoff(int attempt) {
  const BackoffPolicy& b = options_.backoff;
  double delay = static_cast<double>(b.initial_ms) *
                 std::pow(b.multiplier, attempt - 1);
  if (delay > b.max_ms) delay = b.max_ms;
  if (b.jitter > 0) delay *= 1.0 - b.jitter * jitter_rng_.NextDouble();
  if (delay < 1) delay = 1;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int64_t>(delay)));
}

Result<ParsedResponse> Client::CallWithRetry(std::string_view payload,
                                             bool idempotent) {
  LAZYXML_METRIC_COUNTER(retries, "client.retries_total");
  const int attempts = options_.max_attempts > 0 ? options_.max_attempts : 1;
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      retries.Increment();
      SleepBackoff(attempt - 1);
    }
    if (!fd_.valid()) {
      last = Reconnect();
      if (!last.ok()) continue;
    }
    auto r = Call(payload);
    if (r.ok()) {
      const ParsedResponse& resp = r.ValueOrDie();
      if (!resp.ok) {
        Status server_status = resp.ToStatus();
        // Typed server rejections (shed / expired in queue) happen
        // before the engine runs, so re-sending is safe even for
        // mutations.
        if (server_status.IsUnavailable() ||
            server_status.IsDeadlineExceeded()) {
          last = std::move(server_status);
          continue;
        }
        return server_status;  // a real error: surface it
      }
      return r;
    }
    last = r.status();
    // Transport failure: the request's fate is unknown — it may have
    // executed and only the response was lost. Only idempotent commands
    // (or explicit opt-in) may re-send.
    const bool retryable_transport =
        last.IsUnavailable() || last.IsDeadlineExceeded() || last.IsIOError();
    if (!retryable_transport) return last;
    if (!idempotent && !options_.retry_mutations) return last;
  }
  return last;
}

Result<uint64_t> Client::Load(std::string_view xml) {
  std::string payload = "LOAD\n";
  payload.append(xml);
  LAZYXML_ASSIGN_OR_RETURN(ParsedResponse resp,
                           CallWithRetry(payload, /*idempotent=*/false));
  return DetailField(resp.detail, "SID");
}

Result<uint64_t> Client::Insert(uint64_t gp, std::string_view xml) {
  std::string payload = "INSERT " + std::to_string(gp) + "\n";
  payload.append(xml);
  LAZYXML_ASSIGN_OR_RETURN(ParsedResponse resp,
                           CallWithRetry(payload, /*idempotent=*/false));
  return DetailField(resp.detail, "SID");
}

Status Client::Remove(uint64_t gp, uint64_t length) {
  return CallWithRetry("REMOVE " + std::to_string(gp) + " " +
                           std::to_string(length),
                       /*idempotent=*/false)
      .status();
}

// BATCH verbs are session state, not engine state, but a reconnect
// silently discards an open batch — so they never retry on transport
// failure either (a fresh connection would accept BATCH COMMIT with an
// empty buffer and lie about it).
Status Client::BatchBegin() { return CallChecked("BATCH BEGIN").status(); }

Status Client::BatchAdd(bool insert, uint64_t gp, uint64_t length,
                        std::string_view xml) {
  if (insert) {
    std::string payload = "INSERT " + std::to_string(gp) + "\n";
    payload.append(xml);
    return CallChecked(payload).status();
  }
  return Remove(gp, length);
}

Result<uint64_t> Client::BatchCommit() {
  LAZYXML_ASSIGN_OR_RETURN(ParsedResponse resp, CallChecked("BATCH COMMIT"));
  return DetailField(resp.detail, "APPLIED");
}

Status Client::BatchAbort() { return CallChecked("BATCH ABORT").status(); }

Result<uint64_t> Client::Path(
    std::string_view expr,
    std::vector<std::pair<uint64_t, uint64_t>>* rows_out) {
  LAZYXML_ASSIGN_OR_RETURN(
      ParsedResponse resp,
      CallWithRetry("PATH " + std::string(expr), /*idempotent=*/true));
  if (rows_out != nullptr) {
    LAZYXML_RETURN_NOT_OK(ParseRows(resp.body, rows_out));
  }
  return DetailField(resp.detail, "COUNT");
}

Result<uint64_t> Client::Twig(
    std::string_view expr,
    std::vector<std::pair<uint64_t, uint64_t>>* rows_out) {
  LAZYXML_ASSIGN_OR_RETURN(
      ParsedResponse resp,
      CallWithRetry("TWIG " + std::string(expr), /*idempotent=*/true));
  if (rows_out != nullptr) {
    LAZYXML_RETURN_NOT_OK(ParseRows(resp.body, rows_out));
  }
  return DetailField(resp.detail, "COUNT");
}

Result<uint64_t> Client::Xpath(
    std::string_view expr,
    std::vector<std::pair<uint64_t, uint64_t>>* rows_out) {
  LAZYXML_ASSIGN_OR_RETURN(
      ParsedResponse resp,
      CallWithRetry("XPATH " + std::string(expr), /*idempotent=*/true));
  if (rows_out != nullptr) {
    LAZYXML_RETURN_NOT_OK(ParseRows(resp.body, rows_out));
  }
  return DetailField(resp.detail, "COUNT");
}

Status Client::Freeze() { return CallChecked("FREEZE").status(); }

Status Client::Compact() { return CallChecked("COMPACT").status(); }

Status Client::Checkpoint() { return CallChecked("CHECKPOINT").status(); }

Result<ParsedResponse> Client::Check() {
  return CallWithRetry("CHECK", /*idempotent=*/true);
}

Result<std::string> Client::Metrics(bool json) {
  LAZYXML_ASSIGN_OR_RETURN(
      ParsedResponse resp,
      CallWithRetry(json ? "METRICS JSON" : "METRICS TEXT",
                    /*idempotent=*/true));
  return std::move(resp.body);
}

Status Client::Quit() {
  if (!fd_.valid()) return Status::OK();  // already torn down
  Status s = CallChecked("QUIT").status();
  // A server shutting down can close the socket before (or instead of)
  // the BYE reply — ECONNRESET/EPIPE/eof here all mean the session is
  // down, which is exactly what QUIT asked for.
  if (s.IsUnavailable()) s = Status::OK();
  fd_.reset();
  return s;
}

}  // namespace server
}  // namespace lazyxml
