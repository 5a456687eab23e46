// lazyxml_client: command-line client for lazyxml_server.
//
//   lazyxml_client --socket /tmp/lazyxml.sock PATH 'person//interest'
//   lazyxml_client --tcp 127.0.0.1:7788 LOAD @doc.xml
//   echo 'METRICS TEXT' | lazyxml_client --socket /tmp/lazyxml.sock -
//
// One invocation = one session. Commands come from the argv tail (one
// command; a body argument starting with '@' reads a file, '-' reads
// stdin) or, with a lone '-', line-by-line from stdin where a trailing
// '\' continues the payload onto a body read until a '.' line — handy
// for scripted sessions (examples/server_session.sh).

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "server/client.h"
#include "server/flags.h"

namespace {

using lazyxml::Result;
using lazyxml::Status;
using lazyxml::server::Client;
using lazyxml::server::ParsedResponse;

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket <path> | --tcp <host:port>) <command...>\n"
               "       %s (--socket <path> | --tcp <host:port>) -\n"
               "  command args are joined with spaces; an argument '@file'\n"
               "  becomes the payload body from that file, '-' the body\n"
               "  from stdin. With a lone '-', commands are read from\n"
               "  stdin one per line ('\\' continues into a body ended by\n"
               "  a '.' line).\n",
               argv0, argv0);
}

/// Sends one payload, prints the response like a REPL would.
/// Returns false when the response was an ERR.
bool RunOne(Client& client, const std::string& payload) {
  Result<ParsedResponse> r = client.Call(payload);
  if (!r.ok()) {
    std::fprintf(stderr, "transport error: %s\n",
                 r.status().ToString().c_str());
    std::exit(1);
  }
  const ParsedResponse& resp = r.ValueOrDie();
  if (resp.ok) {
    std::printf("OK%s%s\n", resp.detail.empty() ? "" : " ",
                resp.detail.c_str());
  } else {
    std::printf("ERR %s %s\n", resp.code.c_str(), resp.detail.c_str());
  }
  if (!resp.body.empty()) {
    std::fwrite(resp.body.data(), 1, resp.body.size(), stdout);
    if (resp.body.back() != '\n') std::printf("\n");
  }
  return resp.ok;
}

Result<std::string> BodyArg(const std::string& arg) {
  if (arg == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  return lazyxml::ReadFileToString(arg.substr(1));
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = lazyxml::server::ParseClientFlags(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().message().c_str());
    Usage(argv[0]);
    return 2;
  }
  const lazyxml::server::ClientFlags& flags = parsed.ValueOrDie();
  if (flags.help) {
    Usage(argv[0]);
    return 0;
  }
  int i = flags.command_index;
  if ((flags.unix_path.empty() && !flags.use_tcp) || i >= argc) {
    Usage(argv[0]);
    return 2;
  }

  Result<Client> conn =
      flags.use_tcp ? Client::ConnectTcpEndpoint(flags.tcp_host, flags.tcp_port)
                    : Client::ConnectUnixEndpoint(flags.unix_path);
  if (!conn.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 conn.status().ToString().c_str());
    return 1;
  }
  Client client = std::move(conn).ValueOrDie();

  if (std::string(argv[i]) == "-" && i == argc - 1) {
    // Scripted session from stdin.
    bool all_ok = true;
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::string payload = line;
      if (!payload.empty() && payload.back() == '\\') {
        payload.pop_back();
        payload.push_back('\n');
        std::string body_line;
        while (std::getline(std::cin, body_line) && body_line != ".") {
          payload.append(body_line);
          payload.push_back('\n');
        }
        if (!payload.empty() && payload.back() == '\n') payload.pop_back();
      }
      if (!RunOne(client, payload)) all_ok = false;
    }
    return all_ok ? 0 : 1;
  }

  // Single command from argv: words joined by spaces, one optional
  // trailing body argument ('@file' or '-').
  std::string payload;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg.size() > 1 && arg[0] == '@') || (arg == "-" && i == argc - 1)) {
      auto body = BodyArg(arg);
      if (!body.ok()) {
        std::fprintf(stderr, "reading body failed: %s\n",
                     body.status().ToString().c_str());
        return 1;
      }
      payload.push_back('\n');
      payload.append(body.ValueOrDie());
      break;
    }
    if (!payload.empty()) payload.push_back(' ');
    payload.append(arg);
  }
  return RunOne(client, payload) ? 0 : 1;
}
