// Client: a small synchronous library speaking the lazyxml wire protocol
// (server/wire.h) and command language (server/command.h). One Client is
// one session on the server; it is not thread-safe — use one Client per
// thread (the server interleaves sessions, not requests of a session).
//
// Fault tolerance (docs/SERVER.md "Error taxonomy"):
//   * every blocking step — connect, write, read — is bounded by a
//     poll(2) wait, so no call can hang past its deadline;
//   * CallWithRetry reconnects and retries with exponential backoff and
//     deterministic jitter. Server-replied `ERR Unavailable` /
//     `ERR DeadlineExceeded` are always retryable (the engine never saw
//     the request); transport-level failures (reset, timeout, mid-frame
//     close) are retried only for idempotent commands — queries, CHECK,
//     METRICS — unless retry_mutations opts mutating verbs in.
//
// Used by the lazyxml_client CLI, bench_server's swarm, and the server
// tests; scriptable clients (CI e2e) speak the same bytes from python.

#ifndef LAZYXML_SERVER_CLIENT_H_
#define LAZYXML_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/socket.h"
#include "server/command.h"
#include "server/wire.h"

namespace lazyxml {
namespace server {

/// Exponential backoff between retry attempts: delay(k) =
/// min(initial_ms * multiplier^(k-1), max_ms), scaled by a uniform
/// factor in [1 - jitter, 1] drawn from a seeded PRNG (deterministic
/// per Client, so chaos tests replay byte-identically).
struct BackoffPolicy {
  uint32_t initial_ms = 10;
  double multiplier = 2.0;
  uint32_t max_ms = 500;
  double jitter = 0.5;
};

struct ClientOptions {
  WireLimits wire;
  /// Bound on establishing a connection. <= 0 waits forever.
  int connect_timeout_ms = 5000;
  /// Bound on each individual read/write wait. <= 0 waits forever.
  int io_timeout_ms = 10000;
  /// Bound on one whole request/response round trip. <= 0 = unlimited.
  int call_timeout_ms = 30000;
  /// Total tries per CallWithRetry (1 = no retry).
  int max_attempts = 4;
  BackoffPolicy backoff;
  /// Retry mutating commands on *transport* failure too. Off by default:
  /// a LOAD whose response was lost may have committed, and retrying
  /// would apply it twice.
  bool retry_mutations = false;
  /// Seed for backoff jitter (deterministic tests).
  uint64_t jitter_seed = 0x5eedULL;
};

class Client {
 public:
  static Result<Client> ConnectTcpEndpoint(const std::string& host,
                                           uint16_t port,
                                           ClientOptions options = {});
  static Result<Client> ConnectUnixEndpoint(const std::string& path,
                                            ClientOptions options = {});

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  bool connected() const { return fd_.valid(); }
  const ClientOptions& options() const { return options_; }

  /// Sends one raw command payload and waits for the response frame.
  /// One attempt, no reconnect. The Status is about transport/protocol
  /// failure; a server-side ERR comes back as an ok Result whose
  /// ParsedResponse has ok == false. Every transport Status is typed:
  /// DeadlineExceeded (a timeout fired), Unavailable (peer gone),
  /// IOError (this host's stack broke — not retryable).
  Result<ParsedResponse> Call(std::string_view payload);

  /// Like Call, but folds a server-side ERR into the Status.
  Result<ParsedResponse> CallChecked(std::string_view payload);

  /// Call with automatic reconnect + exponential backoff. `idempotent`
  /// declares the command safe to re-send after a transport failure
  /// whose outcome is unknown. Folds server-side ERR into the Status
  /// (after retrying the retryable ones).
  Result<ParsedResponse> CallWithRetry(std::string_view payload,
                                       bool idempotent);

  /// Drops the current connection (if any) and dials the remembered
  /// endpoint again. Counted in client.reconnects_total.
  Status Reconnect();

  // -- Convenience wrappers ---------------------------------------------------
  // Queries / probes ride CallWithRetry as idempotent; mutations retry
  // only server-typed rejections (plus transport failures when
  // retry_mutations is set).

  /// LOAD: appends a document; returns the sid from "SID n GP n LEN n".
  Result<uint64_t> Load(std::string_view xml);
  Result<uint64_t> Insert(uint64_t gp, std::string_view xml);
  Status Remove(uint64_t gp, uint64_t length);
  Status BatchBegin();
  Status BatchAdd(bool insert, uint64_t gp, uint64_t length,
                  std::string_view xml);
  /// Returns the applied-op count from "APPLIED n ...".
  Result<uint64_t> BatchCommit();
  Status BatchAbort();
  /// Returns the match count; `rows_out` (optional) receives the listed
  /// "sid start" body rows.
  Result<uint64_t> Path(std::string_view expr,
                        std::vector<std::pair<uint64_t, uint64_t>>* rows_out =
                            nullptr);
  Result<uint64_t> Twig(std::string_view expr,
                        std::vector<std::pair<uint64_t, uint64_t>>* rows_out =
                            nullptr);
  /// XPATH: rows are "start end" pairs in global coordinates.
  Result<uint64_t> Xpath(std::string_view expr,
                         std::vector<std::pair<uint64_t, uint64_t>>* rows_out =
                             nullptr);
  Status Freeze();
  Status Compact();
  Status Checkpoint();
  /// Returns the full CHECK response ("ERRORS n WARNINGS m" + report).
  Result<ParsedResponse> Check();
  /// METRICS TEXT or METRICS JSON; returns the dump body.
  Result<std::string> Metrics(bool json);
  /// QUIT; the server closes the connection after replying. A peer
  /// close that races the BYE is success — the session is down either
  /// way (regression-tested: graceful shutdown must not surface errors).
  Status Quit();

 private:
  struct Endpoint {
    bool tcp = false;
    std::string host;
    uint16_t port = 0;
    std::string path;
  };

  Client(UniqueFd fd, ClientOptions options, Endpoint endpoint);

  Status WriteAll(std::string_view bytes,
                  std::chrono::steady_clock::time_point deadline);
  /// min(io_timeout, time to `deadline`) in ms; -1 = wait forever.
  int WaitBudgetMs(std::chrono::steady_clock::time_point deadline) const;
  void SleepBackoff(int attempt);

  UniqueFd fd_;
  ClientOptions options_;
  Endpoint endpoint_;
  FrameDecoder decoder_;
  Random jitter_rng_;
};

}  // namespace server
}  // namespace lazyxml

#endif  // LAZYXML_SERVER_CLIENT_H_
