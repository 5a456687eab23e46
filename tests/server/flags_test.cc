#include "server/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace lazyxml {
namespace server {
namespace {

/// argv for `args`, with a program name in front.
std::vector<const char*> Argv(const std::vector<std::string>& args) {
  std::vector<const char*> argv = {"prog"};
  for (const std::string& a : args) argv.push_back(a.c_str());
  return argv;
}

Result<ServerFlags> Server(const std::vector<std::string>& args) {
  const std::vector<const char*> argv = Argv(args);
  return ParseServerFlags(static_cast<int>(argv.size()), argv.data());
}

Result<ClientFlags> Client(const std::vector<std::string>& args) {
  const std::vector<const char*> argv = Argv(args);
  return ParseClientFlags(static_cast<int>(argv.size()), argv.data());
}

void ExpectRejected(const std::vector<std::string>& args,
                    const std::string& names) {
  auto parsed = Server(args);
  ASSERT_FALSE(parsed.ok()) << args.back();
  EXPECT_TRUE(parsed.status().IsInvalidArgument());
  EXPECT_NE(parsed.status().message().find(names), std::string::npos)
      << parsed.status().message();
}

TEST(ServerFlagsTest, ParsesEveryFlag) {
  auto parsed = Server(
      {"--socket", "/tmp/s.sock", "--tcp", "127.0.0.1:7788", "--data-dir",
       "/tmp/d", "--mode", "ls", "--sync", "every-record",
       "--batch-chunk-ops", "64", "--threads", "4", "--max-connections", "9",
       "--force-poll", "--deadline-query-ms", "1", "--deadline-update-ms", "2",
       "--deadline-admin-ms", "3", "--shed-pending", "5", "--shed-bytes", "6",
       "--idle-timeout-ms", "7", "--write-stall-ms", "8", "--drain-ms",
       "10"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ServerOptions& o = parsed.ValueOrDie().server;
  const ServerEngineOptions& e = parsed.ValueOrDie().engine;
  EXPECT_EQ(o.unix_path, "/tmp/s.sock");
  EXPECT_TRUE(o.tcp);
  EXPECT_EQ(o.tcp_host, "127.0.0.1");
  EXPECT_EQ(o.tcp_port, 7788);
  EXPECT_EQ(e.data_dir, "/tmp/d");
  EXPECT_EQ(e.db.mode, LogMode::kLazyStatic);
  EXPECT_EQ(e.durable.wal.sync_policy, WalSyncPolicy::kEveryRecord);
  EXPECT_EQ(e.batch_chunk_ops, 64u);
  EXPECT_EQ(o.num_threads, 4u);
  EXPECT_EQ(o.max_connections, 9u);
  EXPECT_TRUE(o.force_poll);
  EXPECT_EQ(o.deadline.query_ms, 1u);
  EXPECT_EQ(o.deadline.update_ms, 2u);
  EXPECT_EQ(o.deadline.admin_ms, 3u);
  EXPECT_EQ(o.shed_pending_requests, 5u);
  EXPECT_EQ(o.shed_buffered_bytes, 6u);
  EXPECT_EQ(o.idle_timeout_ms, 7u);
  EXPECT_EQ(o.write_stall_timeout_ms, 8u);
  EXPECT_EQ(o.drain_timeout_ms, 10u);
  EXPECT_FALSE(parsed.ValueOrDie().help);
}

TEST(ServerFlagsTest, BoundsAreInclusive) {
  auto parsed = Server({"--tcp", "h:65535", "--threads", "1024",
                        "--max-connections", "1048576"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.ValueOrDie().server.tcp_port, 65535);
  EXPECT_EQ(parsed.ValueOrDie().server.num_threads, kMaxServerThreads);
  EXPECT_EQ(parsed.ValueOrDie().server.max_connections,
            kMaxServerConnections);
  EXPECT_EQ(Server({"--tcp", "h:0"}).ValueOrDie().server.tcp_port, 0);
}

TEST(ServerFlagsTest, RejectsBadNumbers) {
  ExpectRejected({"--socket", "s", "--threads", "-1"}, "--threads");
  ExpectRejected({"--socket", "s", "--threads", "4x"}, "--threads");
  ExpectRejected({"--socket", "s", "--threads", "1025"}, "--threads");
  ExpectRejected({"--socket", "s", "--max-connections", "-1"},
                 "--max-connections");
  ExpectRejected({"--socket", "s", "--max-connections", "1048577"},
                 "--max-connections");
  ExpectRejected({"--tcp", "h:70000"}, "--tcp");
  ExpectRejected({"--tcp", "h:abc"}, "--tcp");
  ExpectRejected({"--tcp", "h:"}, "--tcp");
  ExpectRejected({"--tcp", "nocolon"}, "--tcp");
  ExpectRejected({"--socket", "s", "--deadline-query-ms", "4294967296"},
                 "--deadline-query-ms");
  ExpectRejected({"--socket", "s", "--drain-ms", ""}, "--drain-ms");
  ExpectRejected({"--socket", "s", "--batch-chunk-ops", "1e3"},
                 "--batch-chunk-ops");
  ExpectRejected({"--socket", "s", "--shed-bytes", " 5"}, "--shed-bytes");
}

TEST(ServerFlagsTest, RejectsBadShapes) {
  ExpectRejected({"--socket", "s", "--threads"}, "--threads needs a value");
  ExpectRejected({"--socket", "s", "--bogus", "1"}, "unknown flag");
  ExpectRejected({"--socket", "s", "--mode", "lx"}, "--mode");
  ExpectRejected({"--socket", "s", "--sync", "sometimes"}, "--sync");
  ExpectRejected({"--threads", "2"}, "need --socket and/or --tcp");
}

TEST(ServerFlagsTest, HelpNeedsNoListener) {
  auto parsed = Server({"--help"});
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.ValueOrDie().help);
}

TEST(ClientFlagsTest, StopsAtTheFirstCommandWord) {
  auto parsed = Client({"--tcp", "localhost:9", "PATH", "a//b"});
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ClientFlags& flags = parsed.ValueOrDie();
  EXPECT_TRUE(flags.use_tcp);
  EXPECT_EQ(flags.tcp_host, "localhost");
  EXPECT_EQ(flags.tcp_port, 9);
  EXPECT_EQ(flags.command_index, 3);

  auto unix_only = Client({"--socket", "/tmp/s", "-"});
  ASSERT_TRUE(unix_only.ok());
  EXPECT_EQ(unix_only.ValueOrDie().unix_path, "/tmp/s");
  EXPECT_EQ(unix_only.ValueOrDie().command_index, 3);
}

TEST(ClientFlagsTest, RejectsBadPorts) {
  for (const char* bad : {"h:70000", "h:abc", "h:-1", "h:80x", "nocolon"}) {
    auto parsed = Client({"--tcp", bad, "CHECK"});
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << bad;
  }
  EXPECT_FALSE(Client({"--socket"}).ok());
}

}  // namespace
}  // namespace server
}  // namespace lazyxml
