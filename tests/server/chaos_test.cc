// Fault-tolerance tests for the server edge: the deterministic chaos
// proxy (common/chaos_socket.h), per-request deadlines, overload
// shedding, the idle / slow-client session reaper, client retry with
// backoff, and kill-9 crash recovery of the real server binary.
//
// Everything chaotic here is *seeded*: the proxy's fault schedule is a
// pure function of (seed, bytes forwarded), so a failing seed reproduces
// byte-for-byte — run the one seed, get the same faults at the same
// offsets.

#include "common/chaos_socket.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "common/socket.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/command.h"
#include "server/engine.h"
#include "server/server.h"
#include "server/wire.h"
#include "tests/testutil.h"

namespace lazyxml {
namespace server {
namespace {

std::string FreshDir(const std::string& name) {
  // Pid-qualified: concurrent test processes must not share data dirs or
  // unix sockets, or one instance's server bleeds into another's counts.
  const std::string dir = ::testing::TempDir() + "/lazyxml_chaos_" +
                          std::to_string(::getpid()) + "_" + name;
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const auto& n : names.ValueOrDie()) {
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + n).ok());
  }
  return dir;
}

template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

uint64_t CounterValue(const std::string& name) {
  auto snap = obs::MetricsRegistry::Global().Snapshot();
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A deliberately dumb client: raw fd + frame decoder, no retry, no
/// timeouts — for tests that need to pipeline requests or *not* read.
class RawConn {
 public:
  static RawConn ConnectTcp(uint16_t port) {
    auto fd = ConnectTcpTimed("127.0.0.1", port, 5000);
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    RawConn c;
    c.fd_ = std::move(fd).ValueOrDie();
    EXPECT_TRUE(SetBlocking(c.fd_.get()).ok());
    return c;
  }

  void SendRequest(std::string_view payload) {
    auto frame = EncodeFrame(FrameType::kRequest, payload);
    ASSERT_TRUE(frame.ok());
    const std::string& bytes = frame.ValueOrDie();
    size_t off = 0;
    while (off < bytes.size()) {
      auto r = WriteSome(fd_.get(), bytes.data() + off, bytes.size() - off);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_FALSE(r.ValueOrDie().would_block);
      off += r.ValueOrDie().n;
    }
  }

  /// Reads one response payload; empty optional on orderly EOF.
  Result<std::optional<std::string>> ReadResponse(int timeout_ms = 5000) {
    char buf[4096];
    while (true) {
      auto next = decoder_.Next();
      LAZYXML_RETURN_NOT_OK(next.status());
      if (next.ValueOrDie().has_value()) {
        return std::optional<std::string>(
            std::move(next.ValueOrDie()->payload));
      }
      LAZYXML_ASSIGN_OR_RETURN(bool ready,
                               WaitReadable(fd_.get(), timeout_ms));
      if (!ready) return Status::DeadlineExceeded("no response frame");
      LAZYXML_ASSIGN_OR_RETURN(ReadOutcome r,
                               ReadSome(fd_.get(), buf, sizeof(buf)));
      if (r.eof) return std::optional<std::string>();
      decoder_.Feed(std::string_view(buf, r.n));
    }
  }

  int fd() const { return fd_.get(); }

 private:
  UniqueFd fd_;
  FrameDecoder decoder_;
};

class ChaosTest : public ::testing::Test {
 protected:
  void StartTcp(ServerOptions options = {}) {
    auto e = ServerEngine::Open({});
    ASSERT_TRUE(e.ok());
    engine_ = std::move(e).ValueOrDie();
    options.tcp = true;
    options.tcp_port = 0;
    server_ = std::make_unique<Server>(engine_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (proxy_ != nullptr) proxy_->Stop();
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<ServerEngine> engine_;
  std::unique_ptr<Server> server_;
  std::unique_ptr<ChaosProxy> proxy_;
};

// -- Proxy determinism --------------------------------------------------------

/// The recorded fault schedule must be a pure function of (seed,
/// workload bytes): same seed + same commands → identical (conn, dir,
/// offset, kind) sets. Close/RST are disabled so retries can't perturb
/// the byte stream; events are compared per (conn, dir) sorted by
/// offset because cross-direction recording order is timing-dependent.
std::vector<ChaosProxy::FaultEvent> RunScheduleWorkload(Server* server,
                                                        uint64_t seed) {
  ChaosProxy::Options opt;
  opt.seed = seed;
  opt.min_fault_gap_bytes = 32;
  opt.max_fault_gap_bytes = 256;
  opt.stall_ms = 1;
  opt.weight_close = 0;
  opt.weight_rst = 0;
  auto proxy = ChaosProxy::StartTcp(0, server->tcp_port(), opt);
  EXPECT_TRUE(proxy.ok()) << proxy.status().ToString();

  ClientOptions copt;
  copt.backoff.initial_ms = 1;
  copt.backoff.max_ms = 5;
  auto c = Client::ConnectTcpEndpoint(
      "127.0.0.1", proxy.ValueOrDie()->listen_port(), copt);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
  for (int i = 0; i < 12; ++i) {
    auto n = c.ValueOrDie().Path("a/b");
    EXPECT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(n.ValueOrDie(), 2u);
  }
  EXPECT_TRUE(c.ValueOrDie().Quit().ok());

  proxy.ValueOrDie()->Stop();
  auto schedule = proxy.ValueOrDie()->Schedule();
  std::sort(schedule.begin(), schedule.end(),
            [](const ChaosProxy::FaultEvent& a,
               const ChaosProxy::FaultEvent& b) {
              return std::tie(a.conn, a.dir, a.offset) <
                     std::tie(b.conn, b.dir, b.offset);
            });
  return schedule;
}

TEST_F(ChaosTest, ScheduleIsDeterministicPerSeed) {
  StartTcp();
  Client setup = [&] {
    auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port());
    EXPECT_TRUE(c.ok());
    return std::move(c).ValueOrDie();
  }();
  ASSERT_TRUE(setup.Load("<a><b>x</b><b>y</b></a>").ok());
  ASSERT_TRUE(setup.Quit().ok());

  auto first = RunScheduleWorkload(server_.get(), 0xC0FFEE);
  auto second = RunScheduleWorkload(server_.get(), 0xC0FFEE);
  auto other = RunScheduleWorkload(server_.get(), 0xBEEF);

  ASSERT_FALSE(first.empty()) << "workload too small to draw any fault";
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].conn, second[i].conn) << "event " << i;
    EXPECT_EQ(first[i].dir, second[i].dir) << "event " << i;
    EXPECT_EQ(first[i].offset, second[i].offset) << "event " << i;
    EXPECT_EQ(first[i].kind, second[i].kind) << "event " << i;
  }

  // A different seed must produce a different schedule (sanity: the
  // seed actually feeds the PRNG).
  bool differs = other.size() != first.size();
  for (size_t i = 0; !differs && i < first.size(); ++i) {
    differs = first[i].offset != other[i].offset ||
              first[i].kind != other[i].kind;
  }
  EXPECT_TRUE(differs);
}

// -- Seed sweep: retrying client completes through every fault kind ----------

/// 50 seeds (5 fresh servers x 10 seeds), all fault kinds enabled
/// including RST and mid-stream close. The retrying client must finish
/// its idempotent workload every time — no hangs, no lost calls — and
/// the server must end each round with zero live sessions and a clean
/// scrubber. This is the acceptance test for the retry taxonomy: every
/// chaos outcome maps to a retryable typed status.
TEST_F(ChaosTest, FiftySeedSweepCompletesIdempotentWorkload) {
  const uint64_t retries_before = CounterValue("client.retries_total");
  for (int round = 0; round < 5; ++round) {
    StartTcp();
    {
      auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port());
      ASSERT_TRUE(c.ok());
      ASSERT_TRUE(c.ValueOrDie().Load("<a><b>x</b><b>y</b></a>").ok());
      ASSERT_TRUE(c.ValueOrDie().Quit().ok());
    }
    for (int s = 0; s < 10; ++s) {
      const uint64_t seed = 1000u * (round + 1) + s;
      ChaosProxy::Options opt;
      opt.seed = seed;
      opt.min_fault_gap_bytes = 48;
      opt.max_fault_gap_bytes = 512;
      opt.stall_ms = 2;
      auto proxy = ChaosProxy::StartTcp(0, server_->tcp_port(), opt);
      ASSERT_TRUE(proxy.ok()) << proxy.status().ToString();

      ClientOptions copt;
      copt.connect_timeout_ms = 2000;
      copt.io_timeout_ms = 2000;
      copt.call_timeout_ms = 4000;
      copt.max_attempts = 12;
      copt.backoff.initial_ms = 1;
      copt.backoff.max_ms = 10;
      copt.jitter_seed = seed;
      auto c = Client::ConnectTcpEndpoint("127.0.0.1",
                                          proxy.ValueOrDie()->listen_port(),
                                          copt);
      ASSERT_TRUE(c.ok()) << "seed " << seed << ": "
                          << c.status().ToString();
      for (int i = 0; i < 20; ++i) {
        auto n = c.ValueOrDie().Path("a/b");
        ASSERT_TRUE(n.ok()) << "seed " << seed << " call " << i << ": "
                            << n.status().ToString();
        ASSERT_EQ(n.ValueOrDie(), 2u) << "seed " << seed;
      }
      proxy.ValueOrDie()->Stop();
    }
    // Chaos-killed connections must not leak sessions on the server.
    ASSERT_TRUE(Eventually([&] { return server_->active_sessions() == 0; }));
    auto check = engine_->Check();
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(check.ValueOrDie().errors(), 0u);
    server_->Stop();
    server_.reset();
    engine_.reset();
  }
  // Across 50 seeds with RST enabled, at least one call must have
  // retried (this is what the taxonomy exists for).
  EXPECT_GT(CounterValue("client.retries_total"), retries_before);
}

// -- Deadlines ----------------------------------------------------------------

TEST_F(ChaosTest, QueuedUpdatesPastBudgetAreExpiredNotExecuted) {
  ServerOptions options;
  options.deadline.update_ms = 1;  // expire anything that waits >1ms
  StartTcp(options);
  const uint64_t expired_before =
      CounterValue("server.deadline_exceeded_total");

  // A document big enough that one LOAD takes well over the 1ms budget
  // to parse, so every LOAD pipelined behind it exceeds its deadline
  // while waiting in the session queue.
  std::string big = "<r>";
  for (int i = 0; i < 30000; ++i) big += "<e>xxxxxxxx</e>";
  big += "</r>";

  RawConn conn = RawConn::ConnectTcp(server_->tcp_port());
  const int kPipelined = 6;
  for (int i = 0; i < kPipelined; ++i) {
    conn.SendRequest("LOAD\n" + big);
    if (HasFatalFailure()) return;
  }

  int ok_count = 0, expired = 0;
  for (int i = 0; i < kPipelined; ++i) {
    auto resp = conn.ReadResponse();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_TRUE(resp.ValueOrDie().has_value());
    auto parsed = ParseResponse(*resp.ValueOrDie());
    ASSERT_TRUE(parsed.ok());
    if (parsed.ValueOrDie().ok) {
      ++ok_count;
    } else {
      EXPECT_EQ(parsed.ValueOrDie().code, "DeadlineExceeded")
          << parsed.ValueOrDie().detail;
      ++expired;
    }
  }
  // The tail of the queue waited behind at least one multi-ms parse, so
  // it must expire. The head usually succeeds, but on a loaded machine
  // even its decode-to-pickup wait can exceed 1ms — ok_count carries no
  // floor, only the consistency check below.
  EXPECT_GE(expired, 1);
  EXPECT_GE(CounterValue("server.deadline_exceeded_total"),
            expired_before + static_cast<uint64_t>(expired));

  // Expiry is per-request, not a session death sentence: a query (whose
  // class budget is untouched) must still be served on this connection.
  conn.SendRequest("PATH r/e");
  if (HasFatalFailure()) return;
  auto after = conn.ReadResponse();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_TRUE(after.ValueOrDie().has_value());
  auto after_parsed = ParseResponse(*after.ValueOrDie());
  ASSERT_TRUE(after_parsed.ok());
  EXPECT_TRUE(after_parsed.ValueOrDie().ok) << after_parsed.ValueOrDie().detail;

  // Expired LOADs never touched the engine: the element count reflects
  // only the successful ones.
  auto path = testutil::Xpath(engine_->db(), "r/e", QuerySyntax::kPath);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.ValueOrDie().refs.size(),
            static_cast<uint64_t>(ok_count) * 30000u);
}

// -- Overload shedding --------------------------------------------------------

TEST_F(ChaosTest, OverloadIsShedWithTypedRetryableErrors) {
  ServerOptions options;
  options.shed_pending_requests = 4;  // watermark below the per-session cap
  options.num_threads = 1;            // one worker, so a slow LOAD pins it
  StartTcp(options);
  const uint64_t shed_before = CounterValue("server.shed_total");

  {
    auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.ValueOrDie().Load("<a><b>x</b></a>").ok());
    ASSERT_TRUE(c.ValueOrDie().Quit().ok());
  }

  // Pin the only worker with a slow LOAD so nothing can complete while
  // the burst below decodes — the pending count then crosses the
  // watermark deterministically instead of racing fast completions.
  std::string big = "<big>";
  for (int i = 0; i < 150000; ++i) big += "<e/>";
  big += "</big>";
  const uint64_t requests_before = CounterValue("server.requests");
  RawConn pin = RawConn::ConnectTcp(server_->tcp_port());
  pin.SendRequest("LOAD\n" + big);
  if (HasFatalFailure()) return;
  // server.requests bumps when the worker *picks up* a task: once it
  // moves, the worker is provably inside the big parse.
  ASSERT_TRUE(Eventually(
      [&] { return CounterValue("server.requests") > requests_before; }));

  // Pipeline one burst well past the watermark, then read every
  // response: none may be silently dropped, they must come back in
  // request order, and the rejected ones must be typed Unavailable.
  RawConn conn = RawConn::ConnectTcp(server_->tcp_port());
  const int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) {
    conn.SendRequest("PATH a/b");
    if (HasFatalFailure()) return;
  }
  // No burst reply can come back before the pinning LOAD has finished,
  // and on a loaded sanitizer build that LOAD alone can outlast
  // ReadResponse's default deadline: wait for it with a deadline sized
  // for it, so the burst reads below only wait for the burst.
  auto pinned = pin.ReadResponse(/*timeout_ms=*/120000);
  ASSERT_TRUE(pinned.ok()) << "pinning LOAD: " << pinned.status().ToString();
  ASSERT_TRUE(pinned.ValueOrDie().has_value()) << "pinning LOAD";
  int ok_count = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto resp = conn.ReadResponse();
    ASSERT_TRUE(resp.ok()) << "response " << i << ": "
                           << resp.status().ToString();
    ASSERT_TRUE(resp.ValueOrDie().has_value()) << "response " << i;
    auto parsed = ParseResponse(*resp.ValueOrDie());
    ASSERT_TRUE(parsed.ok());
    if (parsed.ValueOrDie().ok) {
      ++ok_count;
    } else {
      EXPECT_EQ(parsed.ValueOrDie().code, "Unavailable")
          << parsed.ValueOrDie().detail;
      ++shed;
    }
  }
  EXPECT_EQ(ok_count + shed, kBurst);
  EXPECT_GE(ok_count, 1);
  EXPECT_GE(shed, 1);
  EXPECT_GE(CounterValue("server.shed_total"),
            shed_before + static_cast<uint64_t>(shed));

  // A shed request is retryable by contract: the retrying client must
  // get through once the burst has drained.
  ClientOptions copt;
  copt.backoff.initial_ms = 1;
  auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port(), copt);
  ASSERT_TRUE(c.ok());
  auto n = c.ValueOrDie().Path("a/b");
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(n.ValueOrDie(), 1u);
}

// -- Session reaper -----------------------------------------------------------

TEST_F(ChaosTest, IdleSessionsAreReapedWithGoodbyeFrame) {
  ServerOptions options;
  options.idle_timeout_ms = 50;
  StartTcp(options);
  const uint64_t reaped_before = CounterValue("server.sessions_reaped_idle");

  RawConn conn = RawConn::ConnectTcp(server_->tcp_port());
  conn.SendRequest("PATH a/b");
  if (HasFatalFailure()) return;
  auto resp = conn.ReadResponse();
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp.ValueOrDie().has_value());

  // Now go silent. The reaper must close the session on its own — no
  // traffic, no extra thread — after ~idle_timeout_ms.
  ASSERT_TRUE(Eventually([&] { return server_->active_sessions() == 0; }));
  EXPECT_GE(CounterValue("server.sessions_reaped_idle"), reaped_before + 1);

  // The goodbye is a typed, best-effort ERR Unavailable frame before
  // the close — a client that wakes up learns *why* it was dropped.
  auto goodbye = conn.ReadResponse();
  ASSERT_TRUE(goodbye.ok()) << goodbye.status().ToString();
  ASSERT_TRUE(goodbye.ValueOrDie().has_value());
  auto parsed = ParseResponse(*goodbye.ValueOrDie());
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.ValueOrDie().ok);
  EXPECT_EQ(parsed.ValueOrDie().code, "Unavailable");
  auto eof = conn.ReadResponse();
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.ValueOrDie().has_value()) << "expected EOF after goodbye";
}

TEST_F(ChaosTest, BusySessionsAreNotReapedAsIdle) {
  ServerOptions options;
  options.idle_timeout_ms = 60;
  StartTcp(options);

  ClientOptions copt;
  auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port(), copt);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.ValueOrDie().Load("<a><b/></a>").ok());
  // Keep trickling requests at half the idle timeout: the session must
  // survive several full timeout windows.
  for (int i = 0; i < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    auto n = c.ValueOrDie().Path("a/b");
    ASSERT_TRUE(n.ok()) << "iteration " << i << ": "
                        << n.status().ToString();
  }
  EXPECT_EQ(server_->active_sessions(), 1u);
  EXPECT_TRUE(c.ValueOrDie().Quit().ok());
}

TEST_F(ChaosTest, SlowClientsPinningOutputAreDropped) {
  ServerOptions options;
  options.write_stall_timeout_ms = 60;
  options.socket_send_buffer_bytes = 4096;   // stall reproducibly
  options.session.max_result_elements = 100000;  // uncapped listings
  StartTcp(options);
  const uint64_t reaped_before = CounterValue("server.sessions_reaped_slow");

  // A document whose PATH listing is far larger than the send buffer.
  {
    auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port());
    ASSERT_TRUE(c.ok());
    std::string doc = "<r>";
    for (int i = 0; i < 4000; ++i) doc += "<e/>";
    doc += "</r>";
    ASSERT_TRUE(c.ValueOrDie().Load(doc).ok());
    ASSERT_TRUE(c.ValueOrDie().Quit().ok());
  }

  // Ask for the big listing repeatedly and never read a byte: the
  // responses wedge in the server's output buffer, write progress
  // stops, and the stall reaper must cut the connection loose.
  RawConn conn = RawConn::ConnectTcp(server_->tcp_port());
  ASSERT_TRUE(Eventually([&] { return server_->active_sessions() == 1; }));
  for (int i = 0; i < 40; ++i) {
    conn.SendRequest("PATH r/e");
    if (HasFatalFailure()) return;
  }
  ASSERT_TRUE(Eventually([&] { return server_->active_sessions() == 0; }));
  EXPECT_GE(CounterValue("server.sessions_reaped_slow"), reaped_before + 1);
}

// -- Client-side regression: QUIT racing server close ------------------------

TEST_F(ChaosTest, QuitAfterServerStopIsSuccess) {
  StartTcp();
  auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c.ValueOrDie().Load("<a/>").ok());

  // The server goes away first; the client's QUIT now races a peer
  // close. That used to surface a spurious IOError — graceful teardown
  // must treat "peer already gone" as success.
  server_->Stop();
  EXPECT_TRUE(c.ValueOrDie().Quit().ok());
  // And quitting an already-disconnected client stays success.
  EXPECT_TRUE(c.ValueOrDie().Quit().ok());
}

TEST_F(ChaosTest, ServerRepliedShedAndDeadlineAreRetryableStatuses) {
  // The taxonomy the client keys retries off: both rejection kinds are
  // typed, and both map back to retryable statuses through ToStatus.
  auto shed = ParseResponse(ErrorResponse(Status::Unavailable("busy")));
  ASSERT_TRUE(shed.ok());
  EXPECT_TRUE(shed.ValueOrDie().ToStatus().IsUnavailable());
  auto late =
      ParseResponse(ErrorResponse(Status::DeadlineExceeded("too slow")));
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(late.ValueOrDie().ToStatus().IsDeadlineExceeded());
}

// -- Kill-9 torture: the real binary, SIGKILL mid-swarm ----------------------

#ifdef LAZYXML_SERVER_BINARY

struct ServerProcess {
  pid_t pid = -1;

  static ServerProcess Start(const std::string& socket_path,
                             const std::string& data_dir) {
    ServerProcess p;
    p.pid = ::fork();
    if (p.pid == 0) {
      ::execl(LAZYXML_SERVER_BINARY, LAZYXML_SERVER_BINARY, "--socket",
              socket_path.c_str(), "--data-dir", data_dir.c_str(), "--sync",
              "every-record", static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    return p;
  }

  void Kill9() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
  }

  ~ServerProcess() { Kill9(); }
};

/// Waits until the unix socket accepts a wire-level round trip.
bool WaitForServer(const std::string& socket_path) {
  for (int i = 0; i < 500; ++i) {
    ClientOptions copt;
    copt.connect_timeout_ms = 200;
    auto c = Client::ConnectUnixEndpoint(socket_path, copt);
    if (c.ok()) {
      auto m = c.ValueOrDie().Metrics(false);
      if (m.ok()) {
        (void)c.ValueOrDie().Quit();
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

std::map<std::string, std::string> DirBytes(const std::string& dir) {
  std::map<std::string, std::string> out;
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const auto& n : names.ValueOrDie()) {
    auto bytes = ReadFileToString(dir + "/" + n);
    EXPECT_TRUE(bytes.ok()) << n;
    out[n] = std::move(bytes).ValueOrDie();
  }
  return out;
}

TEST_F(ChaosTest, KillNineMidSwarmRecoversCleanAndDeterministically) {
  const std::string dir = FreshDir("kill9");
  const std::string sock = dir + "/srv.sock";

  uint64_t acked_docs = 0;  // LOADs the server acknowledged (durable:
                            // --sync every-record)
  uint64_t sent_docs = 0;   // LOADs we attempted (upper bound)

  for (int round = 0; round < 3; ++round) {
    ServerProcess proc = ServerProcess::Start(sock, dir);
    ASSERT_GT(proc.pid, 0);
    ASSERT_TRUE(WaitForServer(sock)) << "round " << round;

    // A small swarm of writers; SIGKILL lands mid-traffic.
    std::atomic<uint64_t> acked{0}, sent{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> swarm;
    for (int t = 0; t < 3; ++t) {
      swarm.emplace_back([&, t] {
        ClientOptions copt;
        copt.io_timeout_ms = 2000;
        copt.max_attempts = 1;  // a lost ack must stay lost: acked is a
                                // strict lower bound for recovery
        auto c = Client::ConnectUnixEndpoint(sock, copt);
        if (!c.ok()) return;
        while (!stop.load(std::memory_order_relaxed)) {
          sent.fetch_add(1, std::memory_order_relaxed);
          if (c.ValueOrDie().Load("<d><k>v</k></d>").ok()) {
            acked.fetch_add(1, std::memory_order_relaxed);
          } else {
            break;  // server is gone
          }
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    proc.Kill9();
    stop.store(true, std::memory_order_relaxed);
    for (auto& t : swarm) t.join();
    acked_docs += acked.load();
    sent_docs += sent.load();
    ASSERT_TRUE(RemoveFileIfExists(sock).ok());

    // Recover in-process: the scrubber must come back clean and every
    // acknowledged LOAD must have survived.
    ServerEngineOptions eopt;
    eopt.data_dir = dir;
    {
      auto engine = ServerEngine::Open(eopt);
      ASSERT_TRUE(engine.ok()) << "round " << round << ": "
                               << engine.status().ToString();
      auto check = engine.ValueOrDie()->Check();
      ASSERT_TRUE(check.ok());
      EXPECT_EQ(check.ValueOrDie().errors(), 0u) << "round " << round;
      auto path = testutil::Xpath(engine.ValueOrDie()->db(), "d/k",
                                  QuerySyntax::kPath);
      ASSERT_TRUE(path.ok());
      const uint64_t recovered = path.ValueOrDie().refs.size();
      EXPECT_GE(recovered, acked_docs) << "round " << round;
      EXPECT_LE(recovered, sent_docs) << "round " << round;
    }

    // Recovery must be deterministic: once the torn tail has been
    // repaired, re-running recovery changes nothing — the store's bytes
    // reach a fixpoint.
    auto after_first = DirBytes(dir);
    {
      auto engine = ServerEngine::Open(eopt);
      ASSERT_TRUE(engine.ok());
    }
    auto after_second = DirBytes(dir);
    for (const auto& [name, bytes] : after_first) {
      auto it = after_second.find(name);
      ASSERT_NE(it, after_second.end()) << name;
      EXPECT_EQ(bytes, it->second) << name << " changed across recoveries";
    }
    // Opening appends a fresh (empty) WAL segment — append-only growth
    // is fine; inventing *data* on a read-only recovery is not.
    for (const auto& [name, bytes] : after_second) {
      if (after_first.find(name) == after_first.end()) {
        EXPECT_TRUE(bytes.empty())
            << name << ": second recovery wrote " << bytes.size() << " bytes";
      }
    }
  }
  EXPECT_GT(acked_docs, 0u) << "swarm never got a single ack";
}

#endif  // LAZYXML_SERVER_BINARY

}  // namespace
}  // namespace server
}  // namespace lazyxml
