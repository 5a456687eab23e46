#include "server/command.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/strings.h"
#include "query/xpath.h"
#include "server/engine.h"
#include "server/session.h"

namespace lazyxml {
namespace server {
namespace {

// -- Parser ------------------------------------------------------------------

TEST(CommandParseTest, LoadCarriesBody) {
  auto r = ParseCommand("LOAD\n<a><b/></a>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().kind, CommandKind::kLoad);
  EXPECT_EQ(r.ValueOrDie().body, "<a><b/></a>");
}

TEST(CommandParseTest, LoadWithoutBodyFails) {
  EXPECT_FALSE(ParseCommand("LOAD").ok());
  EXPECT_FALSE(ParseCommand("LOAD\n").ok());
}

TEST(CommandParseTest, InsertParsesGpAndBody) {
  auto r = ParseCommand("INSERT 1024\n<c/>");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().kind, CommandKind::kInsert);
  EXPECT_EQ(r.ValueOrDie().gp, 1024u);
  EXPECT_EQ(r.ValueOrDie().body, "<c/>");
}

TEST(CommandParseTest, RemoveParsesGpAndLength) {
  auto r = ParseCommand("REMOVE 7 33");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().kind, CommandKind::kRemove);
  EXPECT_EQ(r.ValueOrDie().gp, 7u);
  EXPECT_EQ(r.ValueOrDie().length, 33u);
}

TEST(CommandParseTest, NonNumericGpFails) {
  EXPECT_FALSE(ParseCommand("INSERT abc\n<c/>").ok());
  EXPECT_FALSE(ParseCommand("REMOVE 1 2x").ok());
}

TEST(CommandParseTest, BatchVerbs) {
  EXPECT_EQ(ParseCommand("BATCH BEGIN").ValueOrDie().kind,
            CommandKind::kBatchBegin);
  EXPECT_EQ(ParseCommand("BATCH COMMIT").ValueOrDie().kind,
            CommandKind::kBatchCommit);
  EXPECT_EQ(ParseCommand("BATCH ABORT").ValueOrDie().kind,
            CommandKind::kBatchAbort);
  EXPECT_FALSE(ParseCommand("BATCH").ok());
  EXPECT_FALSE(ParseCommand("BATCH MAYBE").ok());
}

TEST(CommandParseTest, PathAndTwigTakeOneExpr) {
  auto p = ParseCommand("PATH person//interest");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.ValueOrDie().kind, CommandKind::kPath);
  EXPECT_EQ(p.ValueOrDie().expr, "person//interest");
  auto t = ParseCommand("TWIG person[profile]//age");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t.ValueOrDie().kind, CommandKind::kTwig);
  EXPECT_FALSE(ParseCommand("PATH").ok());
  EXPECT_FALSE(ParseCommand("PATH a b").ok());
}

TEST(CommandParseTest, XpathTakesOneExpr) {
  auto r = ParseCommand("XPATH site/people//person[interest[keyword]]/*");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().kind, CommandKind::kXPath);
  EXPECT_EQ(r.ValueOrDie().expr, "site/people//person[interest[keyword]]/*");
  EXPECT_FALSE(ParseCommand("XPATH").ok());
  EXPECT_FALSE(ParseCommand("XPATH a b").ok());
}

TEST(CommandParseTest, MetricsVariants) {
  EXPECT_FALSE(ParseCommand("METRICS").ValueOrDie().metrics_json);
  EXPECT_FALSE(ParseCommand("METRICS TEXT").ValueOrDie().metrics_json);
  EXPECT_TRUE(ParseCommand("METRICS JSON").ValueOrDie().metrics_json);
  EXPECT_FALSE(ParseCommand("METRICS YAML").ok());
}

TEST(CommandParseTest, TolerantOfCrlfAndRepeatedSpaces) {
  auto r = ParseCommand("REMOVE  7   33\r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().gp, 7u);
  EXPECT_EQ(r.ValueOrDie().length, 33u);
}

TEST(CommandParseTest, UnknownVerbAndEmptyFail) {
  EXPECT_FALSE(ParseCommand("FROBNICATE").ok());
  EXPECT_FALSE(ParseCommand("").ok());
  EXPECT_FALSE(ParseCommand("   ").ok());
}

TEST(CommandParseTest, LineAndExprCapsEnforced) {
  CommandLimits limits;
  limits.max_command_line_bytes = 16;
  EXPECT_FALSE(
      ParseCommand("PATH aaaaaaaaaaaaaaaaaaaaaaa", limits).ok());
  limits.max_command_line_bytes = 4096;
  limits.max_expr_bytes = 4;
  EXPECT_FALSE(ParseCommand("PATH abcde", limits).ok());
  EXPECT_TRUE(ParseCommand("PATH abcd", limits).ok());
}

// -- Response formatting -----------------------------------------------------

TEST(ResponseTest, OkRoundTrip) {
  auto r = ParseResponse(OkResponse("SID 4 GP 0 LEN 10", "body\nlines\n"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().ok);
  EXPECT_EQ(r.ValueOrDie().detail, "SID 4 GP 0 LEN 10");
  EXPECT_EQ(r.ValueOrDie().body, "body\nlines\n");
}

TEST(ResponseTest, BareOkRoundTrip) {
  auto r = ParseResponse(OkResponse());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().ok);
  EXPECT_TRUE(r.ValueOrDie().detail.empty());
}

TEST(ResponseTest, ErrorRoundTripReconstructsStatus) {
  const Status original =
      Status::OutOfRange("gp 99 beyond super document end 42");
  auto r = ParseResponse(ErrorResponse(original));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.ValueOrDie().ok);
  EXPECT_EQ(r.ValueOrDie().code, "OutOfRange");
  const Status round = r.ValueOrDie().ToStatus();
  EXPECT_EQ(round.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(round.message(), original.message());
}

TEST(ResponseTest, NewlinesInErrorMessageAreFlattened) {
  const std::string payload =
      ErrorResponse(Status::Corruption("line one\nline two"));
  EXPECT_EQ(payload.find('\n'), std::string::npos);
}

TEST(ResponseTest, GarbageStatusLineFails) {
  EXPECT_FALSE(ParseResponse("WHAT 123").ok());
  EXPECT_FALSE(ParseResponse("").ok());
}

TEST(ResponseTest, ReplyRowMatchesPrintf) {
  const std::vector<uint64_t> values = {0,  9,  10,
                                        99, 100, uint64_t{1} << 32,
                                        UINT64_MAX};
  for (uint64_t a : values) {
    for (uint64_t b : values) {
      char buf[kMaxReplyRowBytes];
      const char* end = WriteReplyRow(buf, a, b);
      EXPECT_EQ(std::string(buf, static_cast<size_t>(end - buf)),
                StringPrintf("%llu %llu\n", static_cast<unsigned long long>(a),
                             static_cast<unsigned long long>(b)));
    }
  }
  char widest[kMaxReplyRowBytes];
  EXPECT_EQ(WriteReplyRow(widest, UINT64_MAX, UINT64_MAX) - widest,
            static_cast<std::ptrdiff_t>(kMaxReplyRowBytes));
}

// -- Execution against a live in-memory engine -------------------------------

class CommandExecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto e = ServerEngine::Open({});
    ASSERT_TRUE(e.ok());
    engine_ = std::move(e).ValueOrDie();
    session_ = std::make_unique<SessionContext>(1, SessionLimits{});
  }

  /// Parses + executes, asserting the payload parses.
  ExecuteOutcome Run(std::string_view payload) {
    auto cmd = ParseCommand(payload);
    EXPECT_TRUE(cmd.ok()) << cmd.status().ToString();
    return ExecuteCommand(engine_.get(), session_.get(), cmd.ValueOrDie());
  }

  /// Runs and returns the parsed OK response, failing the test on ERR.
  ParsedResponse RunOk(std::string_view payload) {
    const ExecuteOutcome out = Run(payload);
    auto parsed = ParseResponse(out.response);
    EXPECT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.ValueOrDie().ok) << out.response;
    return parsed.ValueOrDie();
  }

  std::unique_ptr<ServerEngine> engine_;
  std::unique_ptr<SessionContext> session_;
};

TEST_F(CommandExecTest, LoadThenQueryThenCheck) {
  const ParsedResponse load = RunOk("LOAD\n<a><b>x</b><b>y</b></a>");
  EXPECT_EQ(load.detail.substr(0, 4), "SID ");
  const ParsedResponse path = RunOk("PATH a/b");
  EXPECT_EQ(path.detail.substr(0, 8), "COUNT 2 ");
  const ParsedResponse twig = RunOk("TWIG a//b");
  EXPECT_EQ(twig.detail.substr(0, 8), "COUNT 2 ");
  const ParsedResponse check = RunOk("CHECK");
  EXPECT_EQ(check.detail, "ERRORS 0 WARNINGS 0");
  EXPECT_TRUE(check.body.empty());
}

TEST_F(CommandExecTest, SecondLoadAppendsAfterFirst) {
  RunOk("LOAD\n<a></a>");
  const ParsedResponse second = RunOk("LOAD\n<b></b>");
  // "<a></a>" is 7 bytes, so the second document lands at gp 7.
  EXPECT_NE(second.detail.find("GP 7 "), std::string::npos) << second.detail;
}

TEST_F(CommandExecTest, InsertAndRemoveDirect) {
  RunOk("LOAD\n<a><b/></a>");
  RunOk("INSERT 3\n<c></c>");
  const ParsedResponse path = RunOk("PATH a/c");
  EXPECT_EQ(path.detail.substr(0, 8), "COUNT 1 ");
  RunOk("REMOVE 3 7");
  const ParsedResponse after = RunOk("PATH a/c");
  EXPECT_EQ(after.detail.substr(0, 8), "COUNT 0 ");
  EXPECT_EQ(RunOk("CHECK").detail, "ERRORS 0 WARNINGS 0");
}

TEST_F(CommandExecTest, BatchBuffersThenCommitsAtomically) {
  RunOk("LOAD\n<a><b/></a>");
  RunOk("BATCH BEGIN");
  EXPECT_EQ(RunOk("INSERT 3\n<c></c>").detail, "QUEUED 1");
  EXPECT_EQ(RunOk("INSERT 3\n<d></d>").detail, "QUEUED 2");
  // Nothing applied yet: the store still has no <c>.
  EXPECT_EQ(RunOk("PATH a/c").detail.substr(0, 8), "COUNT 0 ");
  const ParsedResponse commit = RunOk("BATCH COMMIT");
  EXPECT_EQ(commit.detail.substr(0, 10), "APPLIED 2 ");
  EXPECT_EQ(commit.body.substr(0, 5), "SIDS ");
  EXPECT_EQ(RunOk("PATH a/c").detail.substr(0, 8), "COUNT 1 ");
  EXPECT_FALSE(session_->in_batch());
}

TEST_F(CommandExecTest, BatchAbortDiscardsEverything) {
  RunOk("LOAD\n<a><b/></a>");
  RunOk("BATCH BEGIN");
  RunOk("INSERT 3\n<c></c>");
  EXPECT_EQ(RunOk("BATCH ABORT").detail, "DISCARDED 1");
  EXPECT_EQ(RunOk("PATH a/c").detail.substr(0, 8), "COUNT 0 ");
  EXPECT_FALSE(session_->in_batch());
}

TEST_F(CommandExecTest, BatchMisuseIsAnError) {
  EXPECT_TRUE(Run("BATCH COMMIT").error);
  EXPECT_TRUE(Run("BATCH ABORT").error);
  RunOk("BATCH BEGIN");
  EXPECT_TRUE(Run("BATCH BEGIN").error);
  EXPECT_TRUE(Run("LOAD\n<a/>").error);  // LOAD inside a batch is rejected
  RunOk("BATCH ABORT");
}

TEST_F(CommandExecTest, ResultListingIsCappedButCountExact) {
  session_ = std::make_unique<SessionContext>(
      2, SessionLimits{.max_result_elements = 3});
  RunOk("LOAD\n<a><b/><b/><b/><b/><b/></a>");
  const ParsedResponse path = RunOk("PATH a/b");
  EXPECT_EQ(path.detail.substr(0, 8), "COUNT 5 ");
  EXPECT_NE(path.detail.find("LISTED 3"), std::string::npos) << path.detail;
  // Exactly three "sid start" rows in the body.
  int rows = 0;
  for (char c : path.body) rows += c == '\n';
  EXPECT_EQ(rows, 3);
}

TEST_F(CommandExecTest, ReplyBodiesAreThePrintfRowsOfTheEvaluator) {
  // Twelve inserted segments, so rows carry multi-digit sids and starts.
  RunOk("LOAD\n<site><people></people></site>");
  for (int i = 0; i < 12; ++i) {
    RunOk("INSERT 14\n<person><name/><phone/></person>");
  }
  struct Case {
    const char* verb;
    QuerySyntax syntax;
    const char* expr;
  };
  const std::vector<Case> cases = {
      {"PATH", QuerySyntax::kPath, "site//person"},
      {"PATH", QuerySyntax::kPath, "person/phone"},
      {"PATH", QuerySyntax::kPath, "phone//person"},  // empty
      {"TWIG", QuerySyntax::kTwig, "person[phone]/name"},
      {"TWIG", QuerySyntax::kTwig, "name/person"},  // empty
      {"XPATH", QuerySyntax::kXPath, "//person/*"},
      {"XPATH", QuerySyntax::kXPath, "people/person[name]/phone"},
      {"XPATH", QuerySyntax::kXPath, "//name/phone"},  // empty
  };
  int capped = 0;
  int empty = 0;
  for (size_t cap : {size_t{1000}, size_t{5}}) {
    session_ = std::make_unique<SessionContext>(
        3, SessionLimits{.max_result_elements = cap});
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(c.verb) + " " + c.expr + ", cap " +
                   std::to_string(cap));
      auto r = engine_->db().Query([&](QueryFacade& f) {
        return EvaluateQuery(&f, c.syntax, c.expr, {}, cap);
      });
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const XPathResult& xr = r.ValueOrDie();
      const size_t listed = std::min(cap, xr.count);
      // PATH and TWIG rows are "sid start"; XPATH rows are "start end".
      std::string want;
      for (size_t i = 0; i < listed; ++i) {
        const bool global = c.syntax == QuerySyntax::kXPath;
        want += StringPrintf(
            "%llu %llu\n",
            static_cast<unsigned long long>(global ? xr.elements[i].start
                                                   : xr.refs[i].sid),
            static_cast<unsigned long long>(global ? xr.elements[i].end
                                                   : xr.refs[i].start));
      }
      const ExecuteOutcome out = Run(std::string(c.verb) + " " + c.expr);
      ASSERT_FALSE(out.error) << out.response;
      const std::string status_line =
          out.response.substr(0, out.response.find('\n'));
      EXPECT_NE(status_line.find(StringPrintf("COUNT %zu ", xr.count)),
                std::string::npos)
          << status_line;
      EXPECT_NE(status_line.find(StringPrintf("LISTED %zu", listed)),
                std::string::npos)
          << status_line;
      if (listed == 0) {
        // An empty answer has no body and no newline after the status.
        EXPECT_EQ(out.response, status_line);
      } else {
        EXPECT_EQ(out.response, status_line + "\n" + want);
      }
      capped += listed < xr.count;
      empty += xr.count == 0;
    }
  }
  // The cases cover capped answers (LISTED < COUNT) and empty ones.
  EXPECT_GE(capped, 3);
  EXPECT_EQ(empty, 6);
}

TEST_F(CommandExecTest, XpathQueriesWithPredicatesAndEmptyProof) {
  RunOk("LOAD\n<site><person><profile/><watch/></person><person><watch/>"
        "</person></site>");
  // Both persons carry a watch; only one has a profile.
  const ParsedResponse all = RunOk("XPATH person/watch");
  EXPECT_EQ(all.detail.substr(0, 8), "COUNT 2 ");
  EXPECT_NE(all.detail.find("EMPTYPROOF 0"), std::string::npos) << all.detail;
  const ParsedResponse pred = RunOk("XPATH person[profile]/watch");
  EXPECT_EQ(pred.detail.substr(0, 8), "COUNT 1 ");
  // Body rows are "start end" pairs, one per element.
  int rows = 0;
  for (char c : pred.body) rows += c == '\n';
  EXPECT_EQ(rows, 1);

  // watch//person is summary-provably empty: answered with zero joins.
  const ParsedResponse empty = RunOk("XPATH watch//person");
  EXPECT_EQ(empty.detail.substr(0, 8), "COUNT 0 ");
  EXPECT_NE(empty.detail.find("JOINS 0"), std::string::npos) << empty.detail;
  EXPECT_NE(empty.detail.find("EMPTYPROOF 1"), std::string::npos)
      << empty.detail;
}

TEST_F(CommandExecTest, XpathParseErrorsAreTypedInvalidArgument) {
  RunOk("LOAD\n<a><b/></a>");
  const ExecuteOutcome out = Run("XPATH a[[");
  EXPECT_TRUE(out.error);
  auto parsed = ParseResponse(out.response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.ValueOrDie().ok);
  EXPECT_EQ(parsed.ValueOrDie().code, "InvalidArgument");
  EXPECT_NE(parsed.ValueOrDie().detail.find("offset"), std::string::npos)
      << parsed.ValueOrDie().detail;
}

TEST_F(CommandExecTest, QuitAsksForClose) {
  const ExecuteOutcome out = Run("QUIT");
  EXPECT_TRUE(out.close);
  EXPECT_FALSE(out.error);
}

TEST_F(CommandExecTest, MetricsDumpContainsServerCounters) {
  RunOk("LOAD\n<a/>");
  const ParsedResponse text = RunOk("METRICS TEXT");
  EXPECT_NE(text.body.find("server.cmd.load"), std::string::npos);
  const ParsedResponse json = RunOk("METRICS JSON");
  EXPECT_EQ(json.body.front(), '{');
}

TEST_F(CommandExecTest, EngineErrorsComeBackAsErrResponses) {
  const ExecuteOutcome out = Run("REMOVE 100 5");  // empty super document
  EXPECT_TRUE(out.error);
  auto parsed = ParseResponse(out.response);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed.ValueOrDie().ok);
  EXPECT_FALSE(parsed.ValueOrDie().code.empty());
}

TEST_F(CommandExecTest, FreezeAndCompactSucceed) {
  RunOk("LOAD\n<a><b/></a>");
  RunOk("FREEZE");
  RunOk("COMPACT");
  EXPECT_EQ(RunOk("CHECK").detail, "ERRORS 0 WARNINGS 0");
}

}  // namespace
}  // namespace server
}  // namespace lazyxml
