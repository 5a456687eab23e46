// XPath-subset tests: the parser (structure, typed position-annotated
// errors, limits, canonical round trip), the compiled Lazy-Join
// evaluation against the naive tree-walk oracle, and the tentpole
// property — evaluation with the path summary (pruned, reordered,
// sometimes answered without any scan) is byte-identical to evaluation
// without it.

#include "query/xpath.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/lazy_database.h"
#include "xml/parser.h"
#include "xml/tag_dict.h"

namespace lazyxml {
namespace {

TEST(XPathParseTest, ParsesAxesWildcardsAndPredicates) {
  auto r = ParseXPath("site/people//person[interest[keyword]][watch]/*");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<XPathStep>& steps = r.ValueOrDie();
  ASSERT_EQ(steps.size(), 4u);
  EXPECT_EQ(steps[0].name, "site");
  EXPECT_EQ(steps[1].name, "people");
  EXPECT_FALSE(steps[1].descendant_axis);
  EXPECT_EQ(steps[2].name, "person");
  EXPECT_TRUE(steps[2].descendant_axis);
  ASSERT_EQ(steps[2].predicates.size(), 2u);
  ASSERT_EQ(steps[2].predicates[0].size(), 1u);
  EXPECT_EQ(steps[2].predicates[0][0].name, "interest");
  EXPECT_TRUE(steps[2].predicates[0][0].descendant_axis)
      << "omitted predicate axis means descendant";
  ASSERT_EQ(steps[2].predicates[0][0].predicates.size(), 1u);
  EXPECT_EQ(steps[2].predicates[0][0].predicates[0][0].name, "keyword");
  EXPECT_EQ(steps[2].predicates[1][0].name, "watch");
  EXPECT_TRUE(steps[3].wildcard);
  EXPECT_FALSE(steps[3].descendant_axis);

  // Leading axes parse too.
  ASSERT_TRUE(ParseXPath("//a/b").ok());
  ASSERT_TRUE(ParseXPath("/a//b").ok());
  // A predicate may carry an explicit child axis.
  auto child_pred = ParseXPath("a[/b]");
  ASSERT_TRUE(child_pred.ok());
  EXPECT_FALSE(child_pred.ValueOrDie()[0].predicates[0][0].descendant_axis);
}

TEST(XPathParseTest, RejectionsAreTypedInvalidArgumentWithOffsets) {
  for (const char* bad :
       {"", "/", "//", "a[", "a]", "a[]", "a//", "a/", "a[b", "[a]", "a[b]]",
        "a b", "a$", "1a"}) {
    auto r = ParseXPath(bad);
    ASSERT_FALSE(r.ok()) << "accepted: \"" << bad << "\"";
    EXPECT_TRUE(r.status().IsInvalidArgument()) << bad;
    EXPECT_NE(r.status().ToString().find("offset"), std::string::npos)
        << "no position in: " << r.status().ToString();
  }
}

TEST(XPathParseTest, EnforcesLimits) {
  // Length cap.
  std::string long_expr(kMaxXPathLength + 1, 'a');
  EXPECT_FALSE(ParseXPath(long_expr).ok());

  // Predicate depth cap: one level past the maximum.
  std::string deep;
  for (size_t i = 0; i <= kMaxXPathPredicateDepth; ++i) deep += "a[";
  deep += "a";
  for (size_t i = 0; i <= kMaxXPathPredicateDepth; ++i) deep += "]";
  auto deep_r = ParseXPath(deep);
  ASSERT_FALSE(deep_r.ok());
  EXPECT_TRUE(deep_r.status().IsInvalidArgument());
  // ... and exactly at the maximum parses.
  std::string ok_deep;
  for (size_t i = 0; i < kMaxXPathPredicateDepth; ++i) ok_deep += "a[";
  ok_deep += "a";
  for (size_t i = 0; i < kMaxXPathPredicateDepth; ++i) ok_deep += "]";
  EXPECT_TRUE(ParseXPath(ok_deep).ok());

  // Step-count cap.
  std::string many = "a";
  for (size_t i = 0; i < kMaxXPathSteps; ++i) many += "/a";
  EXPECT_FALSE(ParseXPath(many).ok());
}

TEST(XPathParseTest, FormatRoundTripsCanonically) {
  for (const char* expr :
       {"a", "//a", "a/b//c", "*[*]//interest",
        "site/people//person[interest[keyword]][watch]/*", "a[/b][c//d]"}) {
    auto first = ParseXPath(expr);
    ASSERT_TRUE(first.ok()) << expr;
    const std::string canon = FormatXPath(first.ValueOrDie());
    auto second = ParseXPath(canon);
    ASSERT_TRUE(second.ok()) << canon;
    EXPECT_EQ(FormatXPath(second.ValueOrDie()), canon) << expr;
  }
}

// ---------------------------------------------------------------------------
// Evaluation.

/// Builds the same document into a summary-consulting database and a
/// summary-free one; includes post-load updates so the summary is the
/// incrementally maintained one, not a fresh build.
struct EvalDocs {
  std::unique_ptr<LazyDatabase> with_summary;
  std::unique_ptr<LazyDatabase> without_summary;

  explicit EvalDocs(const std::string& base) {
    for (bool use_summary : {true, false}) {
      LazyDatabaseOptions opts;
      opts.query.use_path_summary = use_summary;
      auto db = std::make_unique<LazyDatabase>(opts);
      EXPECT_TRUE(db->InsertSegment(base, 0).ok());
      db->Freeze();
      (use_summary ? with_summary : without_summary) = std::move(db);
    }
  }

  /// Splices `text` at `gp` into both databases.
  void Insert(const std::string& text, uint64_t gp) {
    ASSERT_TRUE(with_summary->InsertSegment(text, gp).ok());
    ASSERT_TRUE(without_summary->InsertSegment(text, gp).ok());
  }
};

const std::string kSiteDoc =
    "<site><people><person><profile><interest/><interest/></profile>"
    "<watch/></person><person><watch/></person></people>"
    "<items><item><name/></item><item/></items></site>";

/// Pruned, unpruned and naive evaluations of `expr` must agree; returns
/// the pruned result for further assertions.
XPathResult ExpectAllAgree(EvalDocs* docs, const std::string& expr) {
  auto pruned = EvaluateXPath(docs->with_summary.get(), expr);
  auto unpruned = EvaluateXPath(docs->without_summary.get(), expr);
  auto parsed = ParseXPath(expr);
  EXPECT_TRUE(pruned.ok()) << expr << ": " << pruned.status().ToString();
  EXPECT_TRUE(unpruned.ok()) << expr;
  EXPECT_TRUE(parsed.ok()) << expr;
  if (!pruned.ok() || !unpruned.ok() || !parsed.ok()) return {};
  auto naive =
      EvaluateXPathNaive(docs->with_summary.get(), parsed.ValueOrDie());
  EXPECT_TRUE(naive.ok()) << expr;
  if (!naive.ok()) return {};
  EXPECT_EQ(pruned.ValueOrDie().elements, naive.ValueOrDie()) << expr;
  EXPECT_EQ(unpruned.ValueOrDie().elements, naive.ValueOrDie()) << expr;
  EXPECT_FALSE(unpruned.ValueOrDie().summary_empty) << expr;
  return std::move(pruned.ValueOrDie());
}

TEST(XPathEvalTest, MatchesNaiveOracleOnFixedDocument) {
  EvalDocs docs(kSiteDoc);
  docs.Insert("<interest><keyword/></interest>",
              kSiteDoc.find("<profile>") + 9);

  EXPECT_EQ(ExpectAllAgree(&docs, "//person").elements.size(), 2u);
  EXPECT_EQ(ExpectAllAgree(&docs, "person/watch").elements.size(), 2u);
  EXPECT_EQ(ExpectAllAgree(&docs, "person[profile]/watch").elements.size(),
            1u);
  EXPECT_EQ(ExpectAllAgree(&docs, "//profile//keyword").elements.size(), 1u);
  EXPECT_EQ(
      ExpectAllAgree(&docs, "person[interest[keyword]]").elements.size(), 1u);
  EXPECT_EQ(ExpectAllAgree(&docs, "site/items/item").elements.size(), 2u);
  EXPECT_EQ(ExpectAllAgree(&docs, "items/*").elements.size(), 2u);
  EXPECT_EQ(ExpectAllAgree(&docs, "*[watch]").elements.size(), 4u)
      << "site, people and both persons have a watch descendant";

  // Wildcards everywhere.
  const XPathResult all = ExpectAllAgree(&docs, "*");
  EXPECT_GT(all.elements.size(), 10u);
  ExpectAllAgree(&docs, "*//*");
  ExpectAllAgree(&docs, "*[*]/*");
}

TEST(XPathEvalTest, SummaryProvesEmptyWithZeroJoins) {
  EvalDocs docs(kSiteDoc);
  // watch and person both exist, but no person below a watch.
  auto pruned = EvaluateXPath(docs.with_summary.get(), "//watch//person");
  ASSERT_TRUE(pruned.ok());
  EXPECT_TRUE(pruned.ValueOrDie().summary_empty);
  EXPECT_TRUE(pruned.ValueOrDie().elements.empty());
  EXPECT_EQ(pruned.ValueOrDie().joins_executed, 0u)
      << "a summary-proved empty answer must not run any join";

  // Same for a pattern whose predicate is unsatisfiable.
  auto pred = EvaluateXPath(docs.with_summary.get(), "person[item]");
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(pred.ValueOrDie().summary_empty);
  EXPECT_EQ(pred.ValueOrDie().joins_executed, 0u);

  // An unknown tag is empty with or without a summary.
  for (LazyDatabase* db :
       {docs.with_summary.get(), docs.without_summary.get()}) {
    auto r = EvaluateXPath(db, "//nonexistent");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r.ValueOrDie().elements.empty());
  }

  // The unpruned evaluations agree on emptiness the slow way.
  for (const char* expr : {"//watch//person", "person[item]"}) {
    auto slow = EvaluateXPath(docs.without_summary.get(), expr);
    ASSERT_TRUE(slow.ok());
    EXPECT_TRUE(slow.ValueOrDie().elements.empty()) << expr;
    EXPECT_FALSE(slow.ValueOrDie().summary_empty) << expr;
  }
}

TEST(XPathEvalTest, StringOverloadPropagatesParseErrors) {
  EvalDocs docs(kSiteDoc);
  auto r = EvaluateXPath(docs.with_summary.get(), "person[[");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(XPathEvalTest, SummaryStaysUsableAcrossUpdates) {
  // After updates, the incrementally maintained summary keeps proving
  // emptiness correctly: inserting the first matching element must flip
  // the answer from summary-proved-empty to non-empty.
  EvalDocs docs(kSiteDoc);
  auto before = EvaluateXPath(docs.with_summary.get(), "//item//keyword");
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.ValueOrDie().summary_empty);

  docs.Insert("<keyword/>", kSiteDoc.find("<name/>"));
  auto after = ExpectAllAgree(&docs, "//item//keyword");
  EXPECT_EQ(after.elements.size(), 1u);
  EXPECT_FALSE(after.summary_empty);
}

// ---------------------------------------------------------------------------
// Randomized pruned-vs-unpruned-vs-naive equivalence.

constexpr const char* kRandTags[] = {"A", "D", "m", "n"};

std::string RandomFragment(Random* rng, int depth = 0) {
  const char* tag = kRandTags[rng->Uniform(4)];
  std::string out = std::string("<") + tag + ">";
  const int children = depth >= 3 ? 0 : static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < children; ++i) out += RandomFragment(rng, depth + 1);
  out += std::string("</") + tag + ">";
  return out;
}

std::string RandomStep(Random* rng, int depth) {
  std::string out = rng->Bernoulli(0.2) ? std::string("*")
                                        : std::string(kRandTags[rng->Uniform(4)]);
  if (depth < 2 && rng->Bernoulli(0.3)) {
    out += '[';
    out += RandomStep(rng, depth + 1);
    out += ']';
  }
  return out;
}

std::string RandomExpr(Random* rng) {
  std::string out = RandomStep(rng, 0);
  const int extra = static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < extra; ++i) {
    out += rng->Bernoulli(0.5) ? "//" : "/";
    out += RandomStep(rng, 0);
  }
  return out;
}

TEST(XPathEvalTest, RandomizedEquivalenceOnRandomDocuments) {
  Random rng(0xbeef);
  for (int doc_round = 0; doc_round < 4; ++doc_round) {
    std::string doc = "<A>";
    const int tops = 3 + static_cast<int>(rng.Uniform(4));
    for (int i = 0; i < tops; ++i) doc += RandomFragment(&rng);
    doc += "</A>";
    EvalDocs docs(doc);
    // A couple of updates so the maintained summary (not a fresh build)
    // is what pruning consults.
    docs.Insert(RandomFragment(&rng), doc.find('>') + 1);
    docs.Insert(RandomFragment(&rng), 0);
    if (::testing::Test::HasFatalFailure()) return;
    for (int q = 0; q < 25; ++q) {
      const std::string expr = RandomExpr(&rng);
      ExpectAllAgree(&docs, expr);
    }
  }
}

}  // namespace
}  // namespace lazyxml
