#include "server/flags.h"

#include <limits>

#include "common/strings.h"

namespace lazyxml {
namespace server {

namespace {

/// Stores flag `flag`'s number into `*out`. It must be at most `max`
/// (and so fit in `*out`).
template <typename T>
Status SetNumber(const char* flag, std::string_view value, T* out,
                 uint64_t max = std::numeric_limits<T>::max()) {
  LAZYXML_ASSIGN_OR_RETURN(uint64_t v, ParseU64(value, flag));
  if (v > max) {
    return Status::InvalidArgument(std::string(flag) + " must be at most " +
                                   std::to_string(max) + ", got " +
                                   std::string(value));
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

/// Splits "host:port" at the last colon; the port must fit 16 bits.
Status SetHostPort(const char* flag, std::string_view value,
                   std::string* host, uint16_t* port) {
  const size_t colon = value.rfind(':');
  if (colon == std::string_view::npos) {
    return Status::InvalidArgument(std::string(flag) +
                                   " wants host:port, got '" +
                                   std::string(value) + "'");
  }
  *host = std::string(value.substr(0, colon));
  return SetNumber(flag, value.substr(colon + 1), port);
}

}  // namespace

Result<ServerFlags> ParseServerFlags(int argc, const char* const* argv) {
  ServerFlags flags;
  ServerOptions& options = flags.server;
  ServerEngineOptions& engine = flags.engine;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      flags.help = true;
      return flags;
    }
    if (arg == "--force-poll") {
      options.force_poll = true;
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(std::string(arg) + " needs a value");
    }
    const char* flag = argv[i];
    const std::string_view value = argv[++i];
    Status s;
    if (arg == "--socket") {
      options.unix_path = std::string(value);
    } else if (arg == "--tcp") {
      options.tcp = true;
      s = SetHostPort(flag, value, &options.tcp_host, &options.tcp_port);
    } else if (arg == "--data-dir") {
      engine.data_dir = std::string(value);
    } else if (arg == "--mode") {
      if (value == "ld") {
        engine.db.mode = LogMode::kLazyDynamic;
      } else if (value == "ls") {
        engine.db.mode = LogMode::kLazyStatic;
      } else {
        s = Status::InvalidArgument("--mode wants ld or ls, got '" +
                                    std::string(value) + "'");
      }
    } else if (arg == "--sync") {
      if (value == "never") {
        engine.durable.wal.sync_policy = WalSyncPolicy::kNever;
      } else if (value == "every-record") {
        engine.durable.wal.sync_policy = WalSyncPolicy::kEveryRecord;
      } else if (value == "batch") {
        engine.durable.wal.sync_policy = WalSyncPolicy::kBatchBytes;
      } else {
        s = Status::InvalidArgument(
            "--sync wants never|every-record|batch, got '" +
            std::string(value) + "'");
      }
    } else if (arg == "--batch-chunk-ops") {
      s = SetNumber(flag, value, &engine.batch_chunk_ops);
    } else if (arg == "--threads") {
      s = SetNumber(flag, value, &options.num_threads, kMaxServerThreads);
    } else if (arg == "--max-connections") {
      s = SetNumber(flag, value, &options.max_connections,
                    kMaxServerConnections);
    } else if (arg == "--deadline-query-ms") {
      s = SetNumber(flag, value, &options.deadline.query_ms);
    } else if (arg == "--deadline-update-ms") {
      s = SetNumber(flag, value, &options.deadline.update_ms);
    } else if (arg == "--deadline-admin-ms") {
      s = SetNumber(flag, value, &options.deadline.admin_ms);
    } else if (arg == "--shed-pending") {
      s = SetNumber(flag, value, &options.shed_pending_requests);
    } else if (arg == "--shed-bytes") {
      s = SetNumber(flag, value, &options.shed_buffered_bytes);
    } else if (arg == "--idle-timeout-ms") {
      s = SetNumber(flag, value, &options.idle_timeout_ms);
    } else if (arg == "--write-stall-ms") {
      s = SetNumber(flag, value, &options.write_stall_timeout_ms);
    } else if (arg == "--drain-ms") {
      s = SetNumber(flag, value, &options.drain_timeout_ms);
    } else {
      s = Status::InvalidArgument("unknown flag '" + std::string(arg) + "'");
    }
    LAZYXML_RETURN_NOT_OK(s);
  }
  if (options.unix_path.empty() && !options.tcp) {
    return Status::InvalidArgument("need --socket and/or --tcp");
  }
  return flags;
}

Result<ClientFlags> ParseClientFlags(int argc, const char* const* argv) {
  ClientFlags flags;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      flags.help = true;
      break;
    }
    if (arg != "--socket" && arg != "--tcp") break;  // a command word
    if (i + 1 >= argc) {
      return Status::InvalidArgument(std::string(arg) + " needs a value");
    }
    const std::string_view value = argv[++i];
    if (arg == "--socket") {
      flags.unix_path = std::string(value);
    } else {
      flags.use_tcp = true;
      LAZYXML_RETURN_NOT_OK(
          SetHostPort("--tcp", value, &flags.tcp_host, &flags.tcp_port));
    }
  }
  flags.command_index = i;
  return flags;
}

}  // namespace server
}  // namespace lazyxml
