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
#include <string>

#include "common/logging.h"
#include "server/engine.h"
#include "server/flags.h"
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
               "  --threads <n>          own worker pool of n <= 1024 threads\n"
               "                         (0 = shared process pool)\n"
               "  --max-connections <n>  session cap (default 256, at most "
               "1048576)\n"
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

  auto parsed = ParseServerFlags(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    Usage(argv[0]);
    return 2;
  }
  if (parsed.ValueOrDie().help) {
    Usage(argv[0]);
    return 0;
  }
  const ServerOptions options = parsed.ValueOrDie().server;
  const ServerEngineOptions engine_options = parsed.ValueOrDie().engine;

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
