// Socket-level tests of the Server: real connections through the Client
// library (and raw sockets where the client is deliberately rude).
// Everything runs on loopback TCP with an ephemeral port or a unix
// socket in the test temp dir, so parallel test invocations don't fight.

#include "server/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "core/snapshot.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/engine.h"
#include "storage/durable_database.h"
#include "storage/log_record.h"
#include "storage/wal_layout.h"
#include "storage/wal_reader.h"
#include "tests/testutil.h"

namespace lazyxml {
namespace server {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lazyxml_server_" + name;
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const auto& n : names.ValueOrDie()) {
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + n).ok());
  }
  return dir;
}

/// Spins until `pred` holds or ~5s pass (socket teardown is asynchronous
/// relative to the test thread).
template <typename Pred>
bool Eventually(Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

class ServerTest : public ::testing::Test {
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

  Client Connect() {
    auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(c).ValueOrDie();
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<ServerEngine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, LoadQueryCheckOverTcp) {
  StartTcp();
  Client c = Connect();
  auto sid = c.Load("<a><b>x</b><b>y</b></a>");
  ASSERT_TRUE(sid.ok()) << sid.status().ToString();

  std::vector<std::pair<uint64_t, uint64_t>> rows;
  auto count = c.Path("a/b", &rows);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(), 2u);
  EXPECT_EQ(rows.size(), 2u);

  auto twig = c.Twig("a//b");
  ASSERT_TRUE(twig.ok());
  EXPECT_EQ(twig.ValueOrDie(), 2u);

  std::vector<std::pair<uint64_t, uint64_t>> spans;
  auto xpath = c.Xpath("a[b]/b", &spans);
  ASSERT_TRUE(xpath.ok()) << xpath.status().ToString();
  EXPECT_EQ(xpath.ValueOrDie(), 2u);
  EXPECT_EQ(spans.size(), 2u);
  // b//a is summary-provably empty; a malformed expression is a typed
  // rejection, not a dropped connection.
  auto empty = c.Xpath("b//a");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.ValueOrDie(), 0u);
  auto bad = c.Xpath("a[[");
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument()) << bad.status().ToString();

  auto check = c.Check();
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.ValueOrDie().detail, "ERRORS 0 WARNINGS 0");
  EXPECT_TRUE(c.Quit().ok());
}

TEST_F(ServerTest, UnixSocketAndPollBackend) {
  const std::string dir = FreshDir("poll");
  ServerOptions options;
  options.unix_path = dir + "/srv.sock";
  options.force_poll = true;  // exercise the portable backend
  auto e = ServerEngine::Open({});
  ASSERT_TRUE(e.ok());
  engine_ = std::move(e).ValueOrDie();
  server_ = std::make_unique<Server>(engine_.get(), options);
  ASSERT_TRUE(server_->Start().ok());

  auto c = Client::ConnectUnixEndpoint(options.unix_path);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_TRUE(c.ValueOrDie().Load("<a><b/></a>").ok());
  auto count = c.ValueOrDie().Path("a/b");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(), 1u);
  EXPECT_TRUE(c.ValueOrDie().Quit().ok());
}

TEST_F(ServerTest, ServerSideErrorsAreTyped) {
  StartTcp();
  Client c = Connect();
  // Remove from an empty super document: OutOfRange from the engine.
  Status s = c.Remove(100, 5);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange) << s.ToString();
  // The connection survives a server-side error.
  EXPECT_TRUE(c.Load("<a/>").ok());
}

TEST_F(ServerTest, GarbageBytesGetErrorFrameThenClose) {
  StartTcp();
  auto fd = ConnectTcp("127.0.0.1", server_->tcp_port());
  ASSERT_TRUE(fd.ok());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_TRUE(
      WriteSome(fd.ValueOrDie().get(), garbage, sizeof garbage - 1).ok());
  // The server answers with a framed ERR, then hangs up.
  FrameDecoder dec;
  char buf[1024];
  bool got_frame = false;
  bool got_eof = false;
  for (int i = 0; i < 500 && !got_eof; ++i) {
    auto r = ReadSome(fd.ValueOrDie().get(), buf, sizeof buf);
    if (!r.ok()) break;
    if (r.ValueOrDie().n > 0) {
      dec.Feed(std::string_view(buf, r.ValueOrDie().n));
      auto next = dec.Next();
      if (next.ok() && next.ValueOrDie().has_value()) {
        got_frame = true;
        auto resp = ParseResponse(next.ValueOrDie()->payload);
        ASSERT_TRUE(resp.ok());
        EXPECT_FALSE(resp.ValueOrDie().ok);
      }
    }
    if (r.ValueOrDie().eof) got_eof = true;
    if (r.ValueOrDie().would_block) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(got_frame);
  EXPECT_TRUE(got_eof);
}

TEST_F(ServerTest, ConnectionCapSendsErrorFrame) {
  ServerOptions options;
  options.max_connections = 1;
  StartTcp(options);
  Client first = Connect();
  ASSERT_TRUE(first.Load("<a/>").ok());  // session is established

  // The second connection is rejected with a proper error frame — read
  // it raw, without sending anything.
  auto fd = ConnectTcp("127.0.0.1", server_->tcp_port());
  ASSERT_TRUE(fd.ok());
  FrameDecoder dec;
  char buf[1024];
  bool got_reject = false;
  for (int i = 0; i < 500 && !got_reject; ++i) {
    auto r = ReadSome(fd.ValueOrDie().get(), buf, sizeof buf);
    ASSERT_TRUE(r.ok());
    if (r.ValueOrDie().n > 0) {
      dec.Feed(std::string_view(buf, r.ValueOrDie().n));
      auto next = dec.Next();
      ASSERT_TRUE(next.ok());
      if (next.ValueOrDie().has_value()) {
        auto resp = ParseResponse(next.ValueOrDie()->payload);
        ASSERT_TRUE(resp.ok());
        EXPECT_FALSE(resp.ValueOrDie().ok);
        EXPECT_NE(resp.ValueOrDie().detail.find("connection limit"),
                  std::string::npos);
        got_reject = true;
      }
    }
    if (r.ValueOrDie().eof) break;
    if (r.ValueOrDie().would_block) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(got_reject);

  // The first session keeps working; once it leaves, a new one fits.
  ASSERT_TRUE(first.Quit().ok());
  ASSERT_TRUE(Eventually([&] { return server_->active_sessions() == 0; }));
  Client second = Connect();
  EXPECT_TRUE(second.Load("<b/>").ok());
}

TEST_F(ServerTest, AbruptDisconnectMidBatchDiscardsIt) {
  StartTcp();
  Client steady = Connect();
  auto sid_before = steady.Load("<a><b/></a>");
  ASSERT_TRUE(sid_before.ok());

  {
    Client rude = Connect();
    ASSERT_TRUE(rude.BatchBegin().ok());
    ASSERT_TRUE(rude.BatchAdd(/*insert=*/true, 3, 0, "<c></c>").ok());
    // Destructor closes the socket with the batch still open.
  }
  ASSERT_TRUE(Eventually([&] { return server_->active_sessions() == 1; }));

  // The half-built batch never touched the store: no <c> anywhere, the
  // checker is clean, and no sid was burned (the next load is exactly
  // sid_before + 1).
  auto count = steady.Path("a/c");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(), 0u);
  auto check = steady.Check();
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.ValueOrDie().detail, "ERRORS 0 WARNINGS 0");
  auto sid_after = steady.Load("<d></d>");
  ASSERT_TRUE(sid_after.ok());
  EXPECT_EQ(sid_after.ValueOrDie(), sid_before.ValueOrDie() + 1);
}

TEST_F(ServerTest, DisconnectWhileRequestInFlight) {
  StartTcp();
  // Fire a request and slam the connection before the response arrives;
  // the server must not crash or leak the in-flight completion.
  for (int i = 0; i < 10; ++i) {
    auto fd = ConnectTcp("127.0.0.1", server_->tcp_port());
    ASSERT_TRUE(fd.ok());
    auto frame = EncodeFrame(FrameType::kRequest, "LOAD\n<a><b/><b/></a>");
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(WriteSome(fd.ValueOrDie().get(),
                          frame.ValueOrDie().data(),
                          frame.ValueOrDie().size())
                    .ok());
    fd.ValueOrDie().reset();  // gone before the reply
  }
  ASSERT_TRUE(Eventually([&] { return server_->active_sessions() == 0; }));
  Client c = Connect();
  auto check = c.Check();
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.ValueOrDie().detail, "ERRORS 0 WARNINGS 0");
}

TEST_F(ServerTest, TwoClientsRacingWritesStaySerialized) {
  StartTcp();
  constexpr int kClients = 8;
  constexpr int kLoadsEach = 12;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto c = Client::ConnectTcpEndpoint("127.0.0.1", server_->tcp_port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kLoadsEach; ++i) {
        const std::string doc =
            "<doc><t" + std::to_string(t) + "/></doc>";
        if (!c.ValueOrDie().Load(doc).ok()) ++failures;
      }
      c.ValueOrDie().Quit().ok();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  Client c = Connect();
  auto count = c.Path("doc");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(),
            static_cast<uint64_t>(kClients * kLoadsEach));
  auto check = c.Check();
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check.ValueOrDie().detail, "ERRORS 0 WARNINGS 0");
}

TEST_F(ServerTest, RepeatedStartStopOnOneServer) {
  auto e = ServerEngine::Open({});
  ASSERT_TRUE(e.ok());
  engine_ = std::move(e).ValueOrDie();
  ServerOptions options;
  options.tcp = true;
  options.tcp_port = 0;
  server_ = std::make_unique<Server>(engine_.get(), options);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(server_->Start().ok()) << "round " << round;
    EXPECT_FALSE(server_->Start().ok());  // double start refused
    Client c = Connect();
    ASSERT_TRUE(c.Load("<r/>").ok());
    server_->Stop();
    server_->Stop();  // idempotent
    EXPECT_FALSE(server_->running());
  }
  // Data written across all rounds survived (one engine underneath).
  ASSERT_TRUE(server_->Start().ok());
  Client c = Connect();
  auto count = c.Path("r");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.ValueOrDie(), 3u);
}

TEST_F(ServerTest, StopWithBusyConnectionsDrains) {
  StartTcp();
  // Park several sessions with queued work, then Stop underneath them.
  std::vector<Client> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(Connect());
    ASSERT_TRUE(clients.back().Load("<a><b/></a>").ok());
  }
  server_->Stop();
  EXPECT_EQ(server_->active_sessions(), 0u);
}

TEST(ServerOwnedPoolTest, OwnPoolIsDrainedOnStop) {
  auto e = ServerEngine::Open({});
  ASSERT_TRUE(e.ok());
  ServerOptions options;
  options.tcp = true;
  options.tcp_port = 0;
  options.num_threads = 2;  // own pool instead of ThreadPool::Shared()
  Server srv(e.ValueOrDie().get(), options);
  for (int round = 0; round < 2; ++round) {
    ASSERT_TRUE(srv.Start().ok());
    auto c = Client::ConnectTcpEndpoint("127.0.0.1", srv.tcp_port());
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(c.ValueOrDie().Load("<a/>").ok());
    srv.Stop();
  }
}

// -- Durable engine behind the server ----------------------------------------

TEST(ServerDurableTest, ConcurrentLoadsRecoverByteIdentical) {
  const std::string dir = FreshDir("dur_concurrent");
  ServerEngineOptions eng_options;
  eng_options.data_dir = dir;
  auto e = ServerEngine::Open(eng_options);
  ASSERT_TRUE(e.ok()) << e.status().ToString();

  ServerOptions options;
  options.tcp = true;
  options.tcp_port = 0;
  Server srv(e.ValueOrDie().get(), options);
  ASSERT_TRUE(srv.Start().ok());

  // N concurrent clients load distinct documents; every response records
  // the (sid, gp, text) the server actually applied.
  constexpr int kClients = 8;
  constexpr int kLoadsEach = 6;
  struct AppliedOp {
    uint64_t sid;
    uint64_t gp;
    std::string text;
  };
  std::vector<std::vector<AppliedOp>> per_client(kClients);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto c = Client::ConnectTcpEndpoint("127.0.0.1", srv.tcp_port());
      if (!c.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kLoadsEach; ++i) {
        const std::string doc = "<doc><client" + std::to_string(t) +
                                "/><op" + std::to_string(i) + "/></doc>";
        auto resp = c.ValueOrDie().CallChecked("LOAD\n" + doc);
        if (!resp.ok()) {
          ++failures;
          continue;
        }
        AppliedOp op;
        op.text = doc;
        auto grab = [&](const char* key, uint64_t* out) {
          const std::string& d = resp.ValueOrDie().detail;
          const size_t at = d.find(key);
          if (at == std::string::npos) return false;
          *out = std::strtoull(d.c_str() + at + std::strlen(key), nullptr, 10);
          return true;
        };
        if (!grab("SID ", &op.sid) || !grab("GP ", &op.gp)) {
          ++failures;
          continue;
        }
        per_client[t].push_back(std::move(op));
      }
      c.ValueOrDie().Quit().ok();
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);

  // Checker-clean through the server before shutdown.
  {
    auto c = Client::ConnectTcpEndpoint("127.0.0.1", srv.tcp_port());
    ASSERT_TRUE(c.ok());
    auto check = c.ValueOrDie().Check();
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(check.ValueOrDie().detail, "ERRORS 0 WARNINGS 0");
  }
  srv.Stop();
  e.ValueOrDie().reset();  // release the directory

  // Recover the directory the server wrote.
  auto recovered = DurableLazyDatabase::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto recovered_bytes =
      SerializeDatabase(recovered.ValueOrDie()->database());
  ASSERT_TRUE(recovered_bytes.ok());

  // Apply the exact op sequence the server reported — ordered by sid,
  // which is the serialization order the engine chose — to a fresh
  // in-process database. Same ops, same order => byte-identical state.
  std::vector<AppliedOp> ordered;
  for (auto& ops : per_client) {
    for (auto& op : ops) ordered.push_back(std::move(op));
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const AppliedOp& a, const AppliedOp& b) {
              return a.sid < b.sid;
            });
  ASSERT_EQ(ordered.size(),
            static_cast<size_t>(kClients * kLoadsEach));
  LazyDatabase replay;
  for (const AppliedOp& op : ordered) {
    auto sid = replay.InsertSegment(op.text, op.gp);
    ASSERT_TRUE(sid.ok()) << sid.status().ToString();
    EXPECT_EQ(sid.ValueOrDie(), op.sid);
  }
  auto replay_bytes = SerializeDatabase(replay);
  ASSERT_TRUE(replay_bytes.ok());
  EXPECT_EQ(recovered_bytes.ValueOrDie(), replay_bytes.ValueOrDie());
}

/// The bytes of every WAL segment file in `dir`, keyed by file name.
std::map<std::string, std::string> WalFiles(const std::string& dir) {
  std::map<std::string, std::string> out;
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const std::string& name : names.ValueOrDie()) {
    if (!ParseWalSegmentFileName(name).has_value()) continue;
    auto bytes = ReadFileToString(dir + "/" + name);
    EXPECT_TRUE(bytes.ok());
    out[name] = bytes.ValueOrDie();
  }
  return out;
}

/// Freeze markers journaled in the WAL segments of `dir`.
size_t CountFreezeMarkers(const std::string& dir) {
  size_t markers = 0;
  for (const auto& [name, bytes] : WalFiles(dir)) {
    WalSegmentReader reader(bytes);
    LogRecord record;
    Status detail;
    while (reader.Next(&record, &detail) == WalReadOutcome::kRecord) {
      if (record.type == LogRecordType::kFreeze) ++markers;
    }
  }
  return markers;
}

TEST(ServerDurableTest, ScriptedSessionMatchesInProcess) {
  // One client runs a deterministic mixed script against a durable
  // server; the same script applied in-process must leave byte-identical
  // serialized state after recovery, and the same script run on a
  // DurableLazyDatabase directly must write byte-identical WAL segments.
  // In LS mode each query freezes the log, so the freeze markers must
  // land at the same points of the stream too.
  for (const LogMode mode : {LogMode::kLazyDynamic, LogMode::kLazyStatic}) {
    const bool ls = mode == LogMode::kLazyStatic;
    SCOPED_TRACE(ls ? "LS" : "LD");
    const std::string server_dir = FreshDir(ls ? "dur_script_srv_ls"
                                               : "dur_script_srv_ld");
    const std::string direct_dir = FreshDir(ls ? "dur_script_direct_ls"
                                               : "dur_script_direct_ld");

    auto run_script = [](auto&& insert, auto&& remove, auto&& batch,
                         auto&& query) {
      insert("<list><item>one</item></list>", 0);
      insert("<item>two</item>", 6);
      query();
      remove(6, 16);  // take <item>two</item> back out
      batch();
      query();
    };

    {
      ServerEngineOptions eng_options;
      eng_options.data_dir = server_dir;
      eng_options.db.mode = mode;
      auto e = ServerEngine::Open(eng_options);
      ASSERT_TRUE(e.ok());
      ServerOptions options;
      options.tcp = true;
      Server srv(e.ValueOrDie().get(), options);
      ASSERT_TRUE(srv.Start().ok());
      auto conn = Client::ConnectTcpEndpoint("127.0.0.1", srv.tcp_port());
      ASSERT_TRUE(conn.ok());
      Client& c = conn.ValueOrDie();
      run_script(
          [&](std::string_view text, uint64_t gp) {
            ASSERT_TRUE(c.Insert(gp, text).ok());
          },
          [&](uint64_t gp, uint64_t len) {
            ASSERT_TRUE(c.Remove(gp, len).ok());
          },
          [&] {
            ASSERT_TRUE(c.BatchBegin().ok());
            ASSERT_TRUE(c.BatchAdd(true, 6, 0, "<item>three</item>").ok());
            ASSERT_TRUE(c.BatchAdd(false, 24, 16, "").ok());
            ASSERT_TRUE(c.BatchCommit().ok());
          },
          [&] { ASSERT_TRUE(c.Path("list/item").ok()); });
      auto check = c.Check();
      ASSERT_TRUE(check.ok());
      EXPECT_EQ(check.ValueOrDie().detail, "ERRORS 0 WARNINGS 0");
      srv.Stop();
    }

    // The same ops on a DurableLazyDatabase, without server or lock.
    {
      DurableOptions options;
      options.db.mode = mode;
      auto opened = DurableLazyDatabase::Open(direct_dir, options);
      ASSERT_TRUE(opened.ok());
      DurableLazyDatabase& dur = *opened.ValueOrDie();
      run_script(
          [&](std::string_view text, uint64_t gp) {
            ASSERT_TRUE(dur.InsertSegment(text, gp).ok());
          },
          [&](uint64_t gp, uint64_t len) {
            ASSERT_TRUE(dur.RemoveSegment(gp, len).ok());
          },
          [&] {
            std::vector<UpdateOp> ops;
            ops.push_back(UpdateOp::Insert("<item>three</item>", 6));
            ops.push_back(UpdateOp::Remove(24, 16));
            ASSERT_TRUE(dur.ApplyBatch(ops, nullptr).ok());
          },
          [&] { ASSERT_TRUE(dur.database().JoinByName("list", "item").ok()); });
    }
    const auto server_wal = WalFiles(server_dir);
    ASSERT_FALSE(server_wal.empty());
    EXPECT_EQ(server_wal, WalFiles(direct_dir));
    EXPECT_EQ(CountFreezeMarkers(server_dir), ls ? 2u : 0u);

    // The same ops, straight into an in-process database.
    LazyDatabaseOptions db_options;
    db_options.mode = mode;
    LazyDatabase direct(db_options);
    run_script(
        [&](std::string_view text, uint64_t gp) {
          ASSERT_TRUE(direct.InsertSegment(text, gp).ok());
        },
        [&](uint64_t gp, uint64_t len) {
          ASSERT_TRUE(direct.RemoveSegment(gp, len).ok());
        },
        [&] {
          std::vector<UpdateOp> ops;
          ops.push_back(UpdateOp::Insert("<item>three</item>", 6));
          ops.push_back(UpdateOp::Remove(24, 16));
          ASSERT_TRUE(direct.ApplyBatch(ops, nullptr).ok());
        },
        [&] { ASSERT_TRUE(direct.Freeze().ok()); });

    DurableOptions recover_options;
    recover_options.db.mode = mode;
    auto recovered = DurableLazyDatabase::Open(server_dir, recover_options);
    ASSERT_TRUE(recovered.ok());
    auto server_bytes = SerializeDatabase(recovered.ValueOrDie()->database());
    auto direct_bytes = SerializeDatabase(direct);
    ASSERT_TRUE(server_bytes.ok()) << server_bytes.status().ToString();
    ASSERT_TRUE(direct_bytes.ok()) << direct_bytes.status().ToString();
    EXPECT_EQ(server_bytes.ValueOrDie(), direct_bytes.ValueOrDie());
  }
}

// An LS freeze is journaled by the update capture, so every route that
// freezes a durable LS store — a query through database(), OpenView, a
// server command — writes exactly one marker per unfrozen -> frozen
// transition and none while the log stays frozen.
TEST(ServerDurableTest, LsFreezeMarkersJournalOncePerTransition) {
  const std::string dir = FreshDir("dur_ls_markers");
  DurableOptions options;
  options.db.mode = LogMode::kLazyStatic;
  {
    auto opened = DurableLazyDatabase::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    DurableLazyDatabase& dur = *opened.ValueOrDie();
    ConcurrentLazyDatabase db(&dur.database());
    auto appended = [&] { return dur.wal().records_appended(); };

    ASSERT_TRUE(db.AppendDocument("<r><a><b/></a></r>").ok());
    uint64_t before = appended();
    ASSERT_TRUE(dur.database().JoinGlobal("a", "b").ok());
    EXPECT_EQ(appended(), before + 1);
    ASSERT_TRUE(dur.database().JoinGlobal("a", "b").ok());
    ASSERT_TRUE(dur.database().MaterializeGlobalElements("b").ok());
    EXPECT_EQ(appended(), before + 1);

    ASSERT_TRUE(db.AppendDocument("<a><b/></a>").ok());
    before = appended();
    auto view = db.OpenView();
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(appended(), before + 1);
    auto pairs = view.ValueOrDie().JoinGlobal("a", "b");
    ASSERT_TRUE(pairs.ok());
    EXPECT_EQ(pairs.ValueOrDie().size(), 2u);
    ASSERT_TRUE(db.OpenView().ok());
    ASSERT_TRUE(db.Freeze().ok());
    EXPECT_EQ(appended(), before + 1);
  }
  ASSERT_EQ(CountFreezeMarkers(dir), 2u);

  // The same store behind the server: a query and an explicit FREEZE
  // after each write burst, and repeated ones that find it frozen.
  {
    ServerEngineOptions eng_options;
    eng_options.data_dir = dir;
    eng_options.db.mode = LogMode::kLazyStatic;
    auto e = ServerEngine::Open(eng_options);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    ServerOptions srv_options;
    srv_options.tcp = true;
    Server srv(e.ValueOrDie().get(), srv_options);
    ASSERT_TRUE(srv.Start().ok());
    auto conn = Client::ConnectTcpEndpoint("127.0.0.1", srv.tcp_port());
    ASSERT_TRUE(conn.ok());
    Client& c = conn.ValueOrDie();
    ASSERT_TRUE(c.Load("<a><b/><b/></a>").ok());
    auto count = c.Path("a/b");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(count.ValueOrDie(), 4u);
    ASSERT_TRUE(c.Twig("a//b").ok());
    ASSERT_TRUE(c.Freeze().ok());
    ASSERT_TRUE(c.Load("<a><b/></a>").ok());
    ASSERT_TRUE(c.Freeze().ok());
    ASSERT_TRUE(c.Freeze().ok());
    ASSERT_TRUE(c.Xpath("a/b").ok());
    auto check = c.Check();
    ASSERT_TRUE(check.ok());
    EXPECT_EQ(check.ValueOrDie().detail, "ERRORS 0 WARNINGS 0");
    srv.Stop();
  }
  EXPECT_EQ(CountFreezeMarkers(dir), 4u);

  // Recovery replays the markers: the log comes back frozen, and the
  // scrubber's WAL cross-check agrees with the replayed state.
  auto recovered = DurableLazyDatabase::Open(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.ValueOrDie()->database().update_log().frozen());
  auto report = check::Checker().Check(*recovered.ValueOrDie());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.ValueOrDie().ok()) << report.ValueOrDie().ToString();
}

// A durable store now serves snapshot-isolated views: a view opened on
// the server's database stays pinned while a writer commits.
TEST(ServerDurableTest, DurableViewStaysPinnedWhileWriterCommits) {
  ServerEngineOptions eng_options;
  eng_options.data_dir = FreshDir("dur_view_pinned");
  auto e = ServerEngine::Open(eng_options);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ConcurrentLazyDatabase& db = e.ValueOrDie()->db();
  ASSERT_TRUE(db.AppendDocument("<r><a><b/></a></r>").ok());

  auto opened = db.OpenView();
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ReadView view = std::move(opened).ValueOrDie();
  auto pinned = view.JoinGlobal("a", "b");
  ASSERT_TRUE(pinned.ok());
  ASSERT_EQ(pinned.ValueOrDie().size(), 1u);

  constexpr int kWrites = 20;
  std::thread writer([&] {
    for (int i = 0; i < kWrites; ++i) {
      EXPECT_TRUE(db.AppendDocument("<a><b/><b/></a>").ok());
    }
  });
  for (int i = 0; i < 50; ++i) {
    auto again = view.JoinGlobal("a", "b");
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.ValueOrDie(), pinned.ValueOrDie());
  }
  writer.join();
  auto still = view.JoinGlobal("a", "b");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still.ValueOrDie(), pinned.ValueOrDie());
  auto live = db.JoinGlobal("a", "b");
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.ValueOrDie().size(), 1u + 2u * kWrites);
  view = ReadView();  // close before the scrub
  auto report = e.ValueOrDie()->Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().ok()) << report.ValueOrDie().ToString();
}

// --batch-chunk-ops applies to a durable store too: each chunk commits
// as its own WAL batch (one fsync each under every-record sync), and
// recovery reproduces the whole batch.
TEST(ServerDurableTest, ChunkedBatchRecoversAsWhole) {
  const std::string dir = FreshDir("dur_chunked_batch");
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 5; ++i) ops.push_back(UpdateOp::Insert("<a><b/></a>", 0));
  auto fsyncs = [] {
    return obs::MetricsRegistry::Global().Snapshot().counters["wal.fsyncs"];
  };
  {
    ServerEngineOptions eng_options;
    eng_options.data_dir = dir;
    eng_options.durable.wal.sync_policy = WalSyncPolicy::kEveryRecord;
    eng_options.batch_chunk_ops = 2;
    auto e = ServerEngine::Open(eng_options);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    const uint64_t before = fsyncs();
    BatchStats stats;
    ASSERT_TRUE(e.ValueOrDie()->db().ApplyBatch(ops, &stats).ok());
    EXPECT_EQ(stats.applied, ops.size());
    EXPECT_EQ(fsyncs() - before, 3u);  // chunks of 2, 2 and 1 ops
  }
  LazyDatabase direct;
  ASSERT_TRUE(direct.ApplyBatch(ops, nullptr).ok());
  auto recovered = DurableLazyDatabase::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.ValueOrDie()->recovery_stats().records_replayed,
            ops.size());
  auto server_bytes = SerializeDatabase(recovered.ValueOrDie()->database());
  auto direct_bytes = SerializeDatabase(direct);
  ASSERT_TRUE(server_bytes.ok());
  ASSERT_TRUE(direct_bytes.ok());
  EXPECT_EQ(server_bytes.ValueOrDie(), direct_bytes.ValueOrDie());
}

// CHECKPOINT on a durable server snapshots the state and drops the WAL
// the snapshot covers, so a restart replays no record and recovers the
// same bytes. An in-memory server has nothing to checkpoint and says so.
TEST(ServerDurableTest, CheckpointVerbLeavesNothingToReplay) {
  ServerOptions options;
  options.tcp = true;
  const std::string dir = FreshDir("dur_checkpoint");
  std::string served;
  {
    ServerEngineOptions eng_options;
    eng_options.data_dir = dir;
    auto e = ServerEngine::Open(eng_options);
    ASSERT_TRUE(e.ok()) << e.status().ToString();
    Server srv(e.ValueOrDie().get(), options);
    ASSERT_TRUE(srv.Start().ok());
    auto conn = Client::ConnectTcpEndpoint("127.0.0.1", srv.tcp_port());
    ASSERT_TRUE(conn.ok());
    Client& c = conn.ValueOrDie();
    ASSERT_TRUE(c.Load("<r><a><b/></a></r>").ok());
    ASSERT_TRUE(c.Insert(3, "<a><b/><b/></a>").ok());
    const Status checkpoint = c.Checkpoint();
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.ToString();
    srv.Stop();
    auto bytes = e.ValueOrDie()->db().WithExclusive(
        [](LazyDatabase& db) { return SerializeDatabase(db); });
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    served = bytes.ValueOrDie();
  }
  auto recovered = DurableLazyDatabase::Open(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const RecoveryStats& stats = recovered.ValueOrDie()->recovery_stats();
  EXPECT_NE(stats.snapshot_index, 0u);
  EXPECT_EQ(stats.records_replayed, 0u);
  auto report = check::Checker().Check(*recovered.ValueOrDie());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.ValueOrDie().ok()) << report.ValueOrDie().ToString();
  auto bytes = SerializeDatabase(recovered.ValueOrDie()->database());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  EXPECT_EQ(bytes.ValueOrDie(), served);

  auto mem = ServerEngine::Open({});
  ASSERT_TRUE(mem.ok());
  Server srv(mem.ValueOrDie().get(), options);
  ASSERT_TRUE(srv.Start().ok());
  auto conn = Client::ConnectTcpEndpoint("127.0.0.1", srv.tcp_port());
  ASSERT_TRUE(conn.ok());
  const Status refused = conn.ValueOrDie().Checkpoint();
  EXPECT_TRUE(refused.IsNotSupported()) << refused.ToString();
  srv.Stop();
}

// A durable query with pending pre-query work takes the lock exclusive
// and does that work before it evaluates: here a rejected insert leaves
// the path summary stale, and the next query must still see a summary
// fresh at the current epoch, which proves the pattern empty without a
// join.
TEST(ServerDurableTest, QueryRebuildsStaleSummaryFirst) {
  ServerEngineOptions eng_options;
  eng_options.data_dir = FreshDir("dur_stale_query");
  auto e = ServerEngine::Open(eng_options);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ServerEngine& engine = *e.ValueOrDie();
  uint64_t gp = 0;
  ASSERT_TRUE(engine.db().AppendDocument("<r><a><b/></a><a/></r>", &gp).ok());
  auto first = testutil::Xpath(engine.db(), "b//a", QuerySyntax::kPath);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(first.ValueOrDie().summary_empty);

  // Out of bounds: rejected after the epoch bump, which stales it.
  EXPECT_FALSE(engine.db().InsertSegment("<a/>", 1000).ok());
  auto after = testutil::Xpath(engine.db(), "b//a", QuerySyntax::kPath);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.ValueOrDie().summary_empty);
  EXPECT_EQ(after.ValueOrDie().joins_executed, 0u);
  auto rows = testutil::Xpath(engine.db(), "r/a", QuerySyntax::kPath);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.ValueOrDie().refs.size(), 2u);
  auto report = engine.Check();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().ok()) << report.ValueOrDie().ToString();
}

// Readers query a durable LD engine while a writer appends: a write
// that cannot maintain the path summary stales it, and no query may
// rebuild it under the shared lock (TSan).
TEST(ServerDurableTest, QueriesUnderWritesStorm) {
  ServerEngineOptions eng_options;
  eng_options.data_dir = FreshDir("dur_query_storm");
  auto e = ServerEngine::Open(eng_options);
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  ServerEngine& engine = *e.ValueOrDie();
  ASSERT_TRUE(engine.db().AppendDocument("<r><a><b/></a></r>").ok());

  constexpr int kWrites = 40;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      uint64_t last = 0;
      while (!done.load()) {
        auto r = testutil::Xpath(engine.db(), "a//b", QuerySyntax::kPath);
        // Appends only add pairs, so the count never falls.
        if (!r.ok() || r.ValueOrDie().refs.size() < last) {
          ++failures;
          return;
        }
        last = r.ValueOrDie().refs.size();
      }
    });
  }
  for (int i = 0; i < kWrites; ++i) {
    if (!engine.db().AppendDocument("<a><b/></a>").ok()) ++failures;
  }
  done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto r = testutil::Xpath(engine.db(), "a//b", QuerySyntax::kPath);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().refs.size(), static_cast<size_t>(kWrites + 1));
}

}  // namespace
}  // namespace server
}  // namespace lazyxml
