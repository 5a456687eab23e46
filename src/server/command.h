// The lazyxml server's text command language (docs/SERVER.md).
//
// A request frame's payload is one command: a first line of the form
// "VERB [args...]" plus, for commands that carry a document, a body — the
// bytes after the first '\n'. Responses are text too: a status line
// "OK [detail]" or "ERR <Code> <message>", then an optional body.
//
//   LOAD\n<xml>           insert a document at the end of the super doc
//   INSERT <gp>\n<xml>    insert a segment at global position gp
//   REMOVE <gp> <len>     remove the region [gp, gp+len)
//   BATCH BEGIN           start buffering INSERT/REMOVE into the session
//   BATCH COMMIT          apply the buffered batch atomically (one lock,
//                         one WAL group commit)
//   BATCH ABORT           discard the buffered batch
//   PATH <expr>           path query, e.g. PATH person//profile/interest
//   TWIG <expr>           twig query, e.g. TWIG person[profile]//watch
//   XPATH <expr>          XPath-subset query (wildcards, nested
//                         predicates), e.g. XPATH //person[.//watch]/*
//   FREEZE                LS mode: freeze the update log now
//   COMPACT               collapse every top-level segment (CompactAll)
//   CHECK                 run the consistency scrubber, report findings
//   CHECKPOINT            durable server: snapshot the state and drop
//                         the WAL it covers
//   METRICS [TEXT|JSON]   dump the process-wide metrics registry
//   QUIT                  say goodbye and close the connection

#ifndef LAZYXML_SERVER_COMMAND_H_
#define LAZYXML_SERVER_COMMAND_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace lazyxml {
namespace server {

class ServerEngine;
class SessionContext;

enum class CommandKind : uint8_t {
  kLoad,
  kInsert,
  kRemove,
  kBatchBegin,
  kBatchCommit,
  kBatchAbort,
  kPath,
  kTwig,
  kXPath,
  kFreeze,
  kCompact,
  kCheck,
  kCheckpoint,
  kMetrics,
  kQuit,
};

/// Stable lowercase name ("load", "batch_commit", ...) — used as the
/// server.cmd.<name> metric suffix and in traces.
std::string_view CommandKindName(CommandKind kind);

/// Which per-request deadline budget a command draws from
/// (ServerOptions::Deadlines). Queries are cheap and latency-sensitive;
/// updates may group-commit; admin verbs (FREEZE/COMPACT/CHECK/
/// CHECKPOINT) can
/// legitimately run long.
enum class DeadlineClass : uint8_t {
  kQuery = 0,
  kUpdate = 1,
  kAdmin = 2,
};

DeadlineClass DeadlineClassOf(CommandKind kind);

/// "query" / "update" / "admin" — for error messages and docs.
std::string_view DeadlineClassName(DeadlineClass cls);

/// One parsed command.
struct Command {
  CommandKind kind = CommandKind::kQuit;
  uint64_t gp = 0;           ///< INSERT / REMOVE
  uint64_t length = 0;       ///< REMOVE
  std::string expr;          ///< PATH / TWIG / XPATH expression
  std::string body;          ///< LOAD / INSERT document text
  bool metrics_json = false; ///< METRICS JSON
};

/// Caps on the command grammar (the wire cap bounds the body already).
struct CommandLimits {
  size_t max_command_line_bytes = 4096;
  size_t max_expr_bytes = 1024;
};

/// Parses one request payload. InvalidArgument on grammar violations.
Result<Command> ParseCommand(std::string_view payload,
                             const CommandLimits& limits = {});

/// Builds a success response payload: "OK[ detail]" + optional body.
std::string OkResponse(std::string_view detail = {},
                       std::string_view body = {});

/// The most bytes WriteReplyRow writes: two 20-digit numbers, a space
/// and a newline.
inline constexpr size_t kMaxReplyRowBytes = 42;

/// Writes one listed row of a PATH/TWIG/XPATH reply, "<first> <second>\n"
/// in minimal base-10 digits (the bytes `%llu %llu\n` prints), at `out`,
/// which must have kMaxReplyRowBytes of room. Returns one past the row.
char* WriteReplyRow(char* out, uint64_t first, uint64_t second);

/// Builds a failure response payload: "ERR <Code> <message>" (newlines
/// in the message flattened so the status line stays one line).
std::string ErrorResponse(const Status& status);

/// A response payload split back into its parts (client side).
struct ParsedResponse {
  bool ok = false;
  std::string code;    ///< status-code name on ERR ("Corruption", ...)
  std::string detail;  ///< OK detail or ERR message
  std::string body;    ///< bytes after the status line

  /// Reconstructs a Status from an ERR response (OK when ok).
  Status ToStatus() const;
};

/// Splits a response payload. Fails only on a malformed status line.
Result<ParsedResponse> ParseResponse(std::string_view payload);

/// What executing one command produced.
struct ExecuteOutcome {
  std::string response;  ///< response payload to frame back
  bool close = false;    ///< QUIT: close the connection after sending
  bool error = false;    ///< response is an ERR (for server.request_errors)
};

/// Executes `cmd` against the engine within `session` (batch buffering,
/// per-session limits). Thread-safe across sessions: the engine
/// serializes internally; the session is only ever touched by its one
/// in-flight request.
ExecuteOutcome ExecuteCommand(ServerEngine* engine, SessionContext* session,
                              const Command& cmd);

}  // namespace server
}  // namespace lazyxml

#endif  // LAZYXML_SERVER_COMMAND_H_
