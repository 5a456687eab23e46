#include "server/command.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "query/xpath.h"
#include "server/engine.h"
#include "server/session.h"

namespace lazyxml {
namespace server {

namespace {

/// Splits the first line off `payload`: returns the line, leaves the
/// body (bytes after the '\n', possibly empty) in `*body`.
std::string_view SplitFirstLine(std::string_view payload,
                                std::string_view* body) {
  const size_t nl = payload.find('\n');
  if (nl == std::string_view::npos) {
    *body = std::string_view();
    return payload;
  }
  *body = payload.substr(nl + 1);
  return payload.substr(0, nl);
}

/// Tokenizes a command line on single spaces, dropping empty tokens
/// (tolerates repeated spaces and a trailing '\r').
std::vector<std::string_view> Tokens(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::vector<std::string_view> out;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

Status WrongArity(std::string_view verb, const char* usage) {
  return Status::InvalidArgument("usage: " + std::string(usage) +
                                 " (malformed " + std::string(verb) + ")");
}

/// The rest of the line after the verb, trimmed — PATH/TWIG expressions
/// may not contain spaces (the grammars have none), but be forgiving
/// about surrounding whitespace.
Result<std::string> ExprArg(const std::vector<std::string_view>& tokens,
                            const CommandLimits& limits, const char* usage) {
  if (tokens.size() != 2) return WrongArity(tokens[0], usage);
  if (tokens[1].size() > limits.max_expr_bytes) {
    return Status::InvalidArgument(
        "expression exceeds the cap of " +
        std::to_string(limits.max_expr_bytes) + " bytes");
  }
  return std::string(tokens[1]);
}

}  // namespace

std::string_view CommandKindName(CommandKind kind) {
  switch (kind) {
    case CommandKind::kLoad: return "load";
    case CommandKind::kInsert: return "insert";
    case CommandKind::kRemove: return "remove";
    case CommandKind::kBatchBegin: return "batch_begin";
    case CommandKind::kBatchCommit: return "batch_commit";
    case CommandKind::kBatchAbort: return "batch_abort";
    case CommandKind::kPath: return "path";
    case CommandKind::kTwig: return "twig";
    case CommandKind::kXPath: return "xpath";
    case CommandKind::kFreeze: return "freeze";
    case CommandKind::kCompact: return "compact";
    case CommandKind::kCheck: return "check";
    case CommandKind::kCheckpoint: return "checkpoint";
    case CommandKind::kMetrics: return "metrics";
    case CommandKind::kQuit: return "quit";
  }
  return "unknown";
}

DeadlineClass DeadlineClassOf(CommandKind kind) {
  switch (kind) {
    case CommandKind::kPath:
    case CommandKind::kTwig:
    case CommandKind::kXPath:
    case CommandKind::kMetrics:
      return DeadlineClass::kQuery;
    case CommandKind::kLoad:
    case CommandKind::kInsert:
    case CommandKind::kRemove:
    case CommandKind::kBatchBegin:
    case CommandKind::kBatchCommit:
    case CommandKind::kBatchAbort:
      return DeadlineClass::kUpdate;
    case CommandKind::kFreeze:
    case CommandKind::kCompact:
    case CommandKind::kCheck:
    case CommandKind::kCheckpoint:
    case CommandKind::kQuit:
      return DeadlineClass::kAdmin;
  }
  return DeadlineClass::kAdmin;
}

std::string_view DeadlineClassName(DeadlineClass cls) {
  switch (cls) {
    case DeadlineClass::kQuery: return "query";
    case DeadlineClass::kUpdate: return "update";
    case DeadlineClass::kAdmin: return "admin";
  }
  return "unknown";
}

Result<Command> ParseCommand(std::string_view payload,
                             const CommandLimits& limits) {
  std::string_view body;
  const std::string_view line = SplitFirstLine(payload, &body);
  if (line.size() > limits.max_command_line_bytes) {
    return Status::InvalidArgument(
        "command line exceeds the cap of " +
        std::to_string(limits.max_command_line_bytes) + " bytes");
  }
  const std::vector<std::string_view> tokens = Tokens(line);
  if (tokens.empty()) return Status::InvalidArgument("empty command");
  const std::string_view verb = tokens[0];

  Command cmd;
  if (verb == "LOAD") {
    if (tokens.size() != 1) return WrongArity(verb, "LOAD\\n<xml>");
    if (body.empty()) {
      return Status::InvalidArgument("LOAD requires a document body");
    }
    cmd.kind = CommandKind::kLoad;
    cmd.body = std::string(body);
    return cmd;
  }
  if (verb == "INSERT") {
    if (tokens.size() != 2) return WrongArity(verb, "INSERT <gp>\\n<xml>");
    LAZYXML_ASSIGN_OR_RETURN(cmd.gp, ParseU64(tokens[1], "gp"));
    if (body.empty()) {
      return Status::InvalidArgument("INSERT requires a document body");
    }
    cmd.kind = CommandKind::kInsert;
    cmd.body = std::string(body);
    return cmd;
  }
  if (verb == "REMOVE") {
    if (tokens.size() != 3) return WrongArity(verb, "REMOVE <gp> <length>");
    LAZYXML_ASSIGN_OR_RETURN(cmd.gp, ParseU64(tokens[1], "gp"));
    LAZYXML_ASSIGN_OR_RETURN(cmd.length, ParseU64(tokens[2], "length"));
    cmd.kind = CommandKind::kRemove;
    return cmd;
  }
  if (verb == "BATCH") {
    if (tokens.size() != 2) {
      return WrongArity(verb, "BATCH BEGIN|COMMIT|ABORT");
    }
    if (tokens[1] == "BEGIN") cmd.kind = CommandKind::kBatchBegin;
    else if (tokens[1] == "COMMIT") cmd.kind = CommandKind::kBatchCommit;
    else if (tokens[1] == "ABORT") cmd.kind = CommandKind::kBatchAbort;
    else return WrongArity(verb, "BATCH BEGIN|COMMIT|ABORT");
    return cmd;
  }
  if (verb == "PATH") {
    LAZYXML_ASSIGN_OR_RETURN(cmd.expr,
                             ExprArg(tokens, limits, "PATH <expr>"));
    cmd.kind = CommandKind::kPath;
    return cmd;
  }
  if (verb == "TWIG") {
    LAZYXML_ASSIGN_OR_RETURN(cmd.expr,
                             ExprArg(tokens, limits, "TWIG <expr>"));
    cmd.kind = CommandKind::kTwig;
    return cmd;
  }
  if (verb == "XPATH") {
    LAZYXML_ASSIGN_OR_RETURN(cmd.expr,
                             ExprArg(tokens, limits, "XPATH <expr>"));
    cmd.kind = CommandKind::kXPath;
    return cmd;
  }
  if (verb == "FREEZE" || verb == "COMPACT" || verb == "CHECK" ||
      verb == "CHECKPOINT" || verb == "QUIT") {
    if (tokens.size() != 1) {
      return WrongArity(verb, std::string(verb).c_str());
    }
    if (verb == "FREEZE") cmd.kind = CommandKind::kFreeze;
    else if (verb == "COMPACT") cmd.kind = CommandKind::kCompact;
    else if (verb == "CHECK") cmd.kind = CommandKind::kCheck;
    else if (verb == "CHECKPOINT") cmd.kind = CommandKind::kCheckpoint;
    else cmd.kind = CommandKind::kQuit;
    return cmd;
  }
  if (verb == "METRICS") {
    if (tokens.size() > 2) return WrongArity(verb, "METRICS [TEXT|JSON]");
    cmd.kind = CommandKind::kMetrics;
    if (tokens.size() == 2) {
      if (tokens[1] == "JSON") cmd.metrics_json = true;
      else if (tokens[1] != "TEXT") {
        return WrongArity(verb, "METRICS [TEXT|JSON]");
      }
    }
    return cmd;
  }
  return Status::InvalidArgument("unknown command verb '" + std::string(verb) +
                                 "'");
}

std::string OkResponse(std::string_view detail, std::string_view body) {
  std::string out = "OK";
  if (!detail.empty()) {
    out.push_back(' ');
    out.append(detail);
  }
  if (!body.empty()) {
    out.push_back('\n');
    out.append(body);
  }
  return out;
}

char* WriteReplyRow(char* out, uint64_t first, uint64_t second) {
  constexpr size_t kDigits = 20;  // UINT64_MAX has 20
  out = std::to_chars(out, out + kDigits, first).ptr;
  *out++ = ' ';
  out = std::to_chars(out, out + kDigits, second).ptr;
  *out++ = '\n';
  return out;
}

std::string ErrorResponse(const Status& status) {
  std::string msg = status.message();
  for (char& c : msg) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return "ERR " + std::string(StatusCodeToString(status.code())) + " " + msg;
}

Status ParsedResponse::ToStatus() const {
  if (ok) return Status::OK();
  if (code == "InvalidArgument") return Status::InvalidArgument(detail);
  if (code == "NotFound") return Status::NotFound(detail);
  if (code == "AlreadyExists") return Status::AlreadyExists(detail);
  if (code == "OutOfRange") return Status::OutOfRange(detail);
  if (code == "Corruption") return Status::Corruption(detail);
  if (code == "NotSupported") return Status::NotSupported(detail);
  if (code == "ParseError") return Status::ParseError(detail);
  if (code == "IOError") return Status::IOError(detail);
  if (code == "DeadlineExceeded") return Status::DeadlineExceeded(detail);
  if (code == "Unavailable") return Status::Unavailable(detail);
  return Status::Internal(code + ": " + detail);
}

Result<ParsedResponse> ParseResponse(std::string_view payload) {
  std::string_view body;
  std::string_view line = SplitFirstLine(payload, &body);
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  ParsedResponse out;
  out.body = std::string(body);
  if (line == "OK" || StartsWith(line, "OK ")) {
    out.ok = true;
    if (line.size() > 3) out.detail = std::string(line.substr(3));
    return out;
  }
  if (StartsWith(line, "ERR ")) {
    const std::string_view rest = line.substr(4);
    const size_t sp = rest.find(' ');
    out.ok = false;
    out.code = std::string(rest.substr(0, sp));
    if (sp != std::string_view::npos) {
      out.detail = std::string(rest.substr(sp + 1));
    }
    if (out.code.empty()) {
      return Status::Corruption("response status line carries no code");
    }
    return out;
  }
  return Status::Corruption("response payload has no OK/ERR status line");
}

namespace {

/// Per-command instruments, resolved once (dynamic names cannot use the
/// LAZYXML_METRIC_* function-local-static macros).
struct CmdInstruments {
  obs::Counter* count;
  obs::Histogram* us;
};

CmdInstruments& InstrumentsFor(CommandKind kind) {
  constexpr size_t kKinds = static_cast<size_t>(CommandKind::kQuit) + 1;
  static std::array<CmdInstruments, kKinds> all = [] {
    std::array<CmdInstruments, kKinds> a{};
    auto& reg = obs::MetricsRegistry::Global();
    for (size_t i = 0; i < a.size(); ++i) {
      const std::string base =
          "server.cmd." +
          std::string(CommandKindName(static_cast<CommandKind>(i)));
      a[i].count = &reg.GetCounter(base);
      a[i].us = &reg.GetHistogram(base + "_us");
    }
    return a;
  }();
  return all[static_cast<size_t>(kind)];
}

ExecuteOutcome Fail(const Status& status) {
  ExecuteOutcome out;
  out.response = ErrorResponse(status);
  out.error = true;
  return out;
}

ExecuteOutcome RunCommand(ServerEngine* engine, SessionContext* session,
                          const Command& cmd) {
  ExecuteOutcome out;
  switch (cmd.kind) {
    case CommandKind::kLoad: {
      if (session->in_batch()) {
        return Fail(Status::InvalidArgument(
            "LOAD inside a batch is not supported (its position depends on "
            "ops not applied yet); use INSERT <gp>"));
      }
      uint64_t gp = 0;
      auto r = engine->db().AppendDocument(cmd.body, &gp);
      if (!r.ok()) return Fail(r.status());
      out.response = OkResponse(
          StringPrintf("SID %llu GP %llu LEN %zu",
                       static_cast<unsigned long long>(r.ValueOrDie()),
                       static_cast<unsigned long long>(gp), cmd.body.size()));
      return out;
    }
    case CommandKind::kInsert: {
      if (session->in_batch()) {
        auto q = session->BufferOp(UpdateOp::Insert(cmd.body, cmd.gp));
        if (!q.ok()) return Fail(q.status());
        out.response = OkResponse(
            StringPrintf("QUEUED %zu", q.ValueOrDie() + 1));
        return out;
      }
      auto r = engine->db().InsertSegment(cmd.body, cmd.gp);
      if (!r.ok()) return Fail(r.status());
      out.response = OkResponse(StringPrintf(
          "SID %llu", static_cast<unsigned long long>(r.ValueOrDie())));
      return out;
    }
    case CommandKind::kRemove: {
      if (session->in_batch()) {
        auto q = session->BufferOp(UpdateOp::Remove(cmd.gp, cmd.length));
        if (!q.ok()) return Fail(q.status());
        out.response = OkResponse(
            StringPrintf("QUEUED %zu", q.ValueOrDie() + 1));
        return out;
      }
      Status s = engine->db().RemoveSegment(cmd.gp, cmd.length);
      if (!s.ok()) return Fail(s);
      out.response = OkResponse();
      return out;
    }
    case CommandKind::kBatchBegin: {
      Status s = session->BeginBatch();
      if (!s.ok()) return Fail(s);
      out.response = OkResponse("BATCH");
      return out;
    }
    case CommandKind::kBatchCommit: {
      if (!session->in_batch()) {
        return Fail(Status::InvalidArgument("no batch open"));
      }
      const std::vector<UpdateOp> ops = session->TakeBatch();
      BatchStats stats;
      Status s = engine->db().ApplyBatch(ops, &stats);
      if (!s.ok()) {
        // Prefix semantics (core/lazy_database.h): report how far it got.
        return Fail(s.WithContext(StringPrintf(
            "batch failed after %zu/%zu ops", stats.applied, stats.ops)));
      }
      std::string sids;
      for (SegmentId sid : stats.sids) {
        if (!sids.empty()) sids.push_back(' ');
        sids += std::to_string(sid);
      }
      out.response = OkResponse(
          StringPrintf("APPLIED %zu CANCELLED %zu", stats.applied,
                       stats.cancelled_pairs),
          sids.empty() ? std::string() : "SIDS " + sids);
      return out;
    }
    case CommandKind::kBatchAbort: {
      if (!session->in_batch()) {
        return Fail(Status::InvalidArgument("no batch open"));
      }
      LAZYXML_METRIC_COUNTER(aborted, "server.batches_aborted");
      aborted.Increment();
      out.response =
          OkResponse(StringPrintf("DISCARDED %zu", session->AbortBatch()));
      return out;
    }
    case CommandKind::kPath:
    case CommandKind::kTwig:
    case CommandKind::kXPath: {
      // One evaluator; each verb keeps its reply header and listing.
      const QuerySyntax syntax = cmd.kind == CommandKind::kPath
                                     ? QuerySyntax::kPath
                                 : cmd.kind == CommandKind::kTwig
                                     ? QuerySyntax::kTwig
                                     : QuerySyntax::kXPath;
      // The evaluator builds only the rows the reply lists.
      const size_t max_rows = session->limits().max_result_elements;
      auto r = engine->db().Query([&](QueryFacade& f) {
        return EvaluateQuery(&f, syntax, cmd.expr, {}, max_rows);
      });
      if (!r.ok()) return Fail(r.status());
      const XPathResult& xr = r.ValueOrDie();
      const size_t count = xr.count;
      const size_t listed = std::min(session->limits().max_result_elements,
                                     count);
      std::string header;
      switch (syntax) {
        case QuerySyntax::kPath:
          header = StringPrintf(
              "COUNT %zu PAIRS %llu LISTED %zu", count,
              static_cast<unsigned long long>(xr.intermediate_pairs), listed);
          break;
        case QuerySyntax::kTwig:
          header = StringPrintf(
              "COUNT %zu JOINS %llu LISTED %zu", count,
              static_cast<unsigned long long>(xr.joins_executed), listed);
          break;
        case QuerySyntax::kXPath:
          header = StringPrintf(
              "COUNT %zu JOINS %llu PAIRS %llu PRUNED %llu SKIPPED %llu "
              "EMPTYPROOF %d LISTED %zu",
              count, static_cast<unsigned long long>(xr.joins_executed),
              static_cast<unsigned long long>(xr.intermediate_pairs),
              static_cast<unsigned long long>(xr.segments_pruned),
              static_cast<unsigned long long>(xr.elements_skipped),
              xr.summary_empty ? 1 : 0, listed);
          break;
      }
      out.response = OkResponse(header);
      if (listed > 0) {
        LAZYXML_METRIC_HISTOGRAM(encode_us, "server.reply_encode_us");
        LAZYXML_METRIC_COUNTER(rows_total, "server.reply_rows_total");
        obs::ScopedLatency encode_latency(encode_us);
        // The body rows go straight into the reply, sized once for the
        // longest rows and trimmed at the end: no per-row string.
        std::string& reply = out.response;
        reply.push_back('\n');
        const size_t body_at = reply.size();
        reply.resize(body_at + listed * kMaxReplyRowBytes);
        char* p = reply.data() + body_at;
        // PATH and TWIG list (sid, start); XPATH lists (start, end).
        if (syntax == QuerySyntax::kXPath) {
          for (size_t i = 0; i < listed; ++i) {
            p = WriteReplyRow(p, xr.elements[i].start, xr.elements[i].end);
          }
        } else {
          for (size_t i = 0; i < listed; ++i) {
            p = WriteReplyRow(p, xr.refs[i].sid, xr.refs[i].start);
          }
        }
        reply.resize(static_cast<size_t>(p - reply.data()));
        rows_total.Add(listed);
      }
      return out;
    }
    case CommandKind::kFreeze: {
      Status s = engine->db().Freeze();
      if (!s.ok()) return Fail(s);
      out.response = OkResponse();
      return out;
    }
    case CommandKind::kCompact: {
      Status s = engine->db().CompactAll();
      if (!s.ok()) return Fail(s);
      out.response = OkResponse();
      return out;
    }
    case CommandKind::kCheck: {
      auto r = engine->Check();
      if (!r.ok()) return Fail(r.status());
      const check::CheckReport& report = r.ValueOrDie();
      out.response = OkResponse(
          StringPrintf("ERRORS %zu WARNINGS %zu", report.errors(),
                       report.warnings()),
          report.errors() + report.warnings() == 0 ? std::string_view()
                                                   : report.ToString());
      return out;
    }
    case CommandKind::kCheckpoint: {
      Status s = engine->Checkpoint();
      if (!s.ok()) return Fail(s);
      out.response = OkResponse();
      return out;
    }
    case CommandKind::kMetrics: {
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::Global().Snapshot();
      out.response = OkResponse(
          cmd.metrics_json ? "JSON" : "TEXT",
          cmd.metrics_json ? snap.ExportJson() : snap.ExportText());
      return out;
    }
    case CommandKind::kQuit: {
      out.response = OkResponse("BYE");
      out.close = true;
      return out;
    }
  }
  return Fail(Status::Internal("unhandled command kind"));
}

}  // namespace

ExecuteOutcome ExecuteCommand(ServerEngine* engine, SessionContext* session,
                              const Command& cmd) {
  LAZYXML_METRIC_HISTOGRAM(request_us, "server.request_us");
  CmdInstruments& per_cmd = InstrumentsFor(cmd.kind);
  per_cmd.count->Increment();
  ExecuteOutcome out;
  {
    obs::ScopedLatency overall(request_us);
    obs::ScopedLatency cmd_latency(*per_cmd.us);
    out = RunCommand(engine, session, cmd);
  }
  ++session->requests_served;
  return out;
}

}  // namespace server
}  // namespace lazyxml
