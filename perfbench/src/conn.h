// Conn: one client session on the server, for the benchmark's clients.
//
// Every request is sent exactly once with Client::Call, never
// CallWithRetry, so a refused or lost request is always visible to the
// caller. A transport failure drops the connection; the next request
// dials again and counts as a request of its own.

#ifndef PERFBENCH_CONN_H_
#define PERFBENCH_CONN_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "server/client.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two steady-clock instants.
inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// One driver-recorded span. `parent` indexes the same SpanLog (-1: root).
struct Span {
  uint64_t request_id = 0;
  int64_t parent = -1;
  const char* name = "";
  double start_us = 0;  // since the log's epoch
  double end_us = 0;
};

/// Spans of one client thread.
struct SpanLog {
  Clock::time_point epoch;
  std::vector<Span> spans;

  /// Appends a span and returns its index.
  int64_t Add(uint64_t request_id, int64_t parent, const char* name,
              Clock::time_point start, Clock::time_point end);
};

/// The outcome of one request.
struct Reply {
  bool ok = false;         // server answered OK
  bool transport = false;  // no reply at all (timeout, reset, bad frame)
  std::string code;        // ERR status code, or the transport Status code
  std::string detail;      // status-line detail or the error message
  std::string body;
  double rtt_us = 0;       // client-observed round trip

  /// Reads the number after `key` in the detail ("COUNT 12 ..."); -1 if
  /// the key is absent.
  int64_t Field(std::string_view key) const;
};

class Conn {
 public:
  Conn(std::string socket_path, int timeout_ms);

  /// Sends `payload` once and waits for its reply.
  Reply Call(std::string_view payload);

 private:
  std::string path_;
  lazyxml::server::ClientOptions options_;
  std::optional<lazyxml::server::Client> client_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CONN_H_
