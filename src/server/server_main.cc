// lazyxml_server: the network front door as a binary.
//
//   lazyxml_server --socket /tmp/lazyxml.sock
//   lazyxml_server --tcp 127.0.0.1:7788 --data-dir /var/lib/lazyxml
//                  --sync every-record --threads 4 --mode ld
//
// Runs until SIGINT/SIGTERM, then drains in-flight requests and exits 0.

#include <csignal>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "server/engine.h"
#include "server/server.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --socket <path>        listen on a unix-domain socket\n"
               "  --tcp <host:port>      listen on TCP (port 0 = ephemeral)\n"
               "  --data-dir <dir>       durable database directory\n"
               "                         (omitted: in-memory database)\n"
               "  --mode <ld|ls>         lazy-dynamic or lazy-static "
               "(new stores)\n"
               "  --sync <never|every-record|batch>  WAL sync policy\n"
               "  --batch-chunk-ops <n>  split BATCH into n-op chunks so "
               "queries run mid-batch\n"
               "                         (0 = atomic batch)\n"
               "  --threads <n>          own worker pool of n threads\n"
               "                         (0 = shared process pool)\n"
               "  --max-connections <n>  session cap (default 256)\n"
               "  --force-poll           use poll(2) even where epoll exists\n"
               "  --deadline-query-ms <n>   query budget (0 = none)\n"
               "  --deadline-update-ms <n>  update budget (0 = none)\n"
               "  --deadline-admin-ms <n>   admin budget (0 = none)\n"
               "  --shed-pending <n>     shed above n queued requests "
               "(0 = off)\n"
               "  --shed-bytes <n>       shed above n buffered response "
               "bytes (0 = off)\n"
               "  --idle-timeout-ms <n>  reap idle sessions (0 = never)\n"
               "  --write-stall-ms <n>   drop stalled slow clients "
               "(0 = never)\n"
               "  --drain-ms <n>         shutdown response-flush budget\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lazyxml;
  using namespace lazyxml::server;

  ServerOptions options;
  ServerEngineOptions engine_options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      options.unix_path = need_value("--socket");
    } else if (arg == "--tcp") {
      const std::string hp = need_value("--tcp");
      const size_t colon = hp.rfind(':');
      if (colon == std::string::npos) {
        std::fprintf(stderr, "--tcp wants host:port, got '%s'\n", hp.c_str());
        return 2;
      }
      options.tcp = true;
      options.tcp_host = hp.substr(0, colon);
      options.tcp_port =
          static_cast<uint16_t>(std::atoi(hp.c_str() + colon + 1));
    } else if (arg == "--data-dir") {
      engine_options.data_dir = need_value("--data-dir");
    } else if (arg == "--mode") {
      const std::string mode = need_value("--mode");
      if (mode == "ld") {
        engine_options.db.mode = LogMode::kLazyDynamic;
      } else if (mode == "ls") {
        engine_options.db.mode = LogMode::kLazyStatic;
      } else {
        std::fprintf(stderr, "--mode wants ld or ls, got '%s'\n",
                     mode.c_str());
        return 2;
      }
    } else if (arg == "--sync") {
      const std::string sync = need_value("--sync");
      if (sync == "never") {
        engine_options.durable.wal.sync_policy = WalSyncPolicy::kNever;
      } else if (sync == "every-record") {
        engine_options.durable.wal.sync_policy = WalSyncPolicy::kEveryRecord;
      } else if (sync == "batch") {
        engine_options.durable.wal.sync_policy = WalSyncPolicy::kBatchBytes;
      } else {
        std::fprintf(stderr,
                     "--sync wants never|every-record|batch, got '%s'\n",
                     sync.c_str());
        return 2;
      }
    } else if (arg == "--batch-chunk-ops") {
      engine_options.batch_chunk_ops = static_cast<size_t>(
          std::atoll(need_value("--batch-chunk-ops")));
    } else if (arg == "--threads") {
      options.num_threads = static_cast<size_t>(
          std::atoi(need_value("--threads")));
    } else if (arg == "--max-connections") {
      options.max_connections = static_cast<size_t>(
          std::atoi(need_value("--max-connections")));
    } else if (arg == "--force-poll") {
      options.force_poll = true;
    } else if (arg == "--deadline-query-ms") {
      options.deadline.query_ms = static_cast<uint32_t>(
          std::atoi(need_value("--deadline-query-ms")));
    } else if (arg == "--deadline-update-ms") {
      options.deadline.update_ms = static_cast<uint32_t>(
          std::atoi(need_value("--deadline-update-ms")));
    } else if (arg == "--deadline-admin-ms") {
      options.deadline.admin_ms = static_cast<uint32_t>(
          std::atoi(need_value("--deadline-admin-ms")));
    } else if (arg == "--shed-pending") {
      options.shed_pending_requests = static_cast<size_t>(
          std::atoll(need_value("--shed-pending")));
    } else if (arg == "--shed-bytes") {
      options.shed_buffered_bytes = static_cast<size_t>(
          std::atoll(need_value("--shed-bytes")));
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms = static_cast<uint32_t>(
          std::atoi(need_value("--idle-timeout-ms")));
    } else if (arg == "--write-stall-ms") {
      options.write_stall_timeout_ms = static_cast<uint32_t>(
          std::atoi(need_value("--write-stall-ms")));
    } else if (arg == "--drain-ms") {
      options.drain_timeout_ms = static_cast<uint32_t>(
          std::atoi(need_value("--drain-ms")));
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  if (options.unix_path.empty() && !options.tcp) {
    std::fprintf(stderr, "need --socket and/or --tcp\n");
    Usage(argv[0]);
    return 2;
  }

  auto engine = ServerEngine::Open(engine_options);
  if (!engine.ok()) {
    LAZYXML_LOG(Error) << "engine open failed: "
                       << engine.status().ToString();
    return 1;
  }

  Server srv(engine.ValueOrDie().get(), options);
  Status s = srv.Start();
  if (!s.ok()) {
    LAZYXML_LOG(Error) << "server start failed: " << s.ToString();
    return 1;
  }
  if (!options.unix_path.empty()) {
    LAZYXML_LOG(Info) << "listening on unix socket " << options.unix_path;
  }
  if (options.tcp) {
    LAZYXML_LOG(Info) << "listening on " << options.tcp_host << ":"
                      << srv.tcp_port();
  }
  LAZYXML_LOG(Info) << (engine.ValueOrDie()->durable()
                            ? "durable database at " + engine_options.data_dir
                            : std::string("in-memory database"));

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (g_stop == 0) {
    struct timespec ts{0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  LAZYXML_LOG(Info) << "shutting down";
  srv.Stop();
  return 0;
}
