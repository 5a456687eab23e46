// Command-line flags of lazyxml_server and lazyxml_client, parsed in
// process: a number that does not parse or is out of its flag's range
// is an InvalidArgument naming the flag (the binaries exit 2 on it),
// never a silently wrapped or truncated value.

#ifndef LAZYXML_SERVER_FLAGS_H_
#define LAZYXML_SERVER_FLAGS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "server/engine.h"
#include "server/server.h"

namespace lazyxml {
namespace server {

/// Upper bound of --threads: a worker pool larger than this is a typo.
inline constexpr uint64_t kMaxServerThreads = 1024;
/// Upper bound of --max-connections.
inline constexpr uint64_t kMaxServerConnections = 1u << 20;

/// What lazyxml_server's command line asks for.
struct ServerFlags {
  ServerOptions server;
  ServerEngineOptions engine;
  bool help = false;
};

/// Parses lazyxml_server's flags (argv[0] is skipped). Also fails when
/// neither --socket nor --tcp is given, unless --help is.
Result<ServerFlags> ParseServerFlags(int argc, const char* const* argv);

/// What lazyxml_client's leading flags ask for.
struct ClientFlags {
  std::string unix_path;
  bool use_tcp = false;
  std::string tcp_host;
  uint16_t tcp_port = 0;
  bool help = false;
  /// argv index of the first command word (argc when there is none).
  int command_index = 0;
};

/// Parses lazyxml_client's flags up to the first command word.
Result<ClientFlags> ParseClientFlags(int argc, const char* const* argv);

}  // namespace server
}  // namespace lazyxml

#endif  // LAZYXML_SERVER_FLAGS_H_
