// TWIG syntax (named steps with bracketed predicates such as
// "person[profile//interest][address/city]//watch"), parsed into
// XPathSteps and evaluated by the shared evaluator; every answer is
// checked against the naive oracle.

#include <gtest/gtest.h>

#include "core/lazy_database.h"
#include "query/xpath.h"
#include "tests/query/query_test_util.h"
#include "xmlgen/chopper.h"
#include "xmlgen/synthetic_generator.h"
#include "xmlgen/xmark_generator.h"

namespace lazyxml {
namespace {

using testutil::ExpectMatchesNaive;

XPathResult Twig(LazyDatabase* db, std::string_view expr) {
  return ExpectMatchesNaive(db, QuerySyntax::kTwig, expr);
}

std::vector<XPathStep> ParseTwig(std::string_view expr) {
  return ParseQuery(QuerySyntax::kTwig, expr).ValueOrDie();
}

TEST(TwigParseTest, PlainPath) {
  auto steps = ParseTwig("a//b/c");
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].name, "a");
  EXPECT_EQ(steps[1].name, "b");
  EXPECT_TRUE(steps[1].descendant_axis);
  EXPECT_FALSE(steps[2].descendant_axis);
  for (const XPathStep& s : steps) EXPECT_TRUE(s.predicates.empty());
}

TEST(TwigParseTest, Predicates) {
  auto steps = ParseTwig("person[profile//interest][address/city]//watch");
  ASSERT_EQ(steps.size(), 2u);  // the output node is the last main step
  EXPECT_EQ(steps[0].name, "person");
  ASSERT_EQ(steps[0].predicates.size(), 2u);
  ASSERT_EQ(steps[0].predicates[0].size(), 2u);
  EXPECT_EQ(steps[0].predicates[0][0].name, "profile");
  EXPECT_EQ(steps[0].predicates[0][1].name, "interest");
  ASSERT_EQ(steps[0].predicates[1].size(), 2u);
  EXPECT_EQ(steps[0].predicates[1][0].name, "address");
  EXPECT_FALSE(steps[0].predicates[1][1].descendant_axis);
  EXPECT_EQ(steps[1].name, "watch");
}

TEST(TwigParseTest, NestedPredicates) {
  auto steps = ParseTwig("a[b[c]//d]");
  ASSERT_EQ(steps.size(), 1u);
  ASSERT_EQ(steps[0].predicates.size(), 1u);
  const std::vector<XPathStep>& pred = steps[0].predicates[0];
  ASSERT_EQ(pred.size(), 2u);  // b, then //d inside the predicate path
  EXPECT_EQ(pred[0].name, "b");
  ASSERT_EQ(pred[0].predicates.size(), 1u);
  EXPECT_EQ(pred[0].predicates[0][0].name, "c");
  EXPECT_EQ(pred[1].name, "d");
}

TEST(TwigParseTest, Rejections) {
  for (const char* bad :
       {"", "a[b", "a]b", "a[]", "a[b]]", "a///b", "9a", "a[*]", "*//b"}) {
    auto r = ParseQuery(QuerySyntax::kTwig, bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << bad;
  }
}

TEST(TwigQueryTest, PredicateFiltersAncestors) {
  LazyDatabase db;
  // Two persons; only the first has an interest; both have watches.
  ASSERT_TRUE(db.InsertSegment("<people>"
                               "<person><interest/><watch/></person>"
                               "<person><watch/></person>"
                               "</people>",
                               0)
                  .ok());
  EXPECT_EQ(Twig(&db, "person[interest]//watch").refs.size(), 1u);
}

TEST(TwigQueryTest, MultiplePredicatesAreConjunctive) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<r>"
                               "<p><x/><y/><out/></p>"
                               "<p><x/><out/></p>"
                               "<p><y/><out/></p>"
                               "</r>",
                               0)
                  .ok());
  EXPECT_EQ(Twig(&db, "p[x][y]//out").refs.size(), 1u);
}

TEST(TwigQueryTest, OutputIsLastMainStep) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b><c/></b><b/></a>", 0).ok());
  // No predicate: plain path semantics.
  EXPECT_EQ(Twig(&db, "a//b//c").refs.size(), 1u);
  // Root-only twig returns matching roots.
  EXPECT_EQ(Twig(&db, "b[c]").refs.size(), 1u);
}

TEST(TwigQueryTest, ChildAxisInPredicate) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<r><p><q><x/></q></p><p><x/></p></r>", 0).ok());
  // [x] is descendant by default; [/x] requires a direct child.
  EXPECT_EQ(Twig(&db, "p[x]").refs.size(), 2u);
  EXPECT_EQ(Twig(&db, "p[/x]").refs.size(), 1u);
}

TEST(TwigQueryTest, AcrossSegmentsMatchesOracle) {
  LazyDatabase db;
  const std::string base = "<people><w></w></people>";
  const std::string person =
      "<person><interest/><watches><w2></w2></watches></person>";
  ASSERT_TRUE(db.InsertSegment(base, 0).ok());
  ASSERT_TRUE(db.InsertSegment(person, 11).ok());
  const uint64_t hole = 11 + person.find("<w2>") + 4;
  ASSERT_TRUE(db.InsertSegment("<watch/>", hole).ok());
  for (const char* expr :
       {"person[interest]//watch", "person//watch", "person[watches//watch]",
        "person[interest][watches]"}) {
    EXPECT_EQ(Twig(&db, expr).refs.size(), 1u) << expr;
  }
}

TEST(TwigQueryTest, XMarkChoppedTwigs) {
  XMarkConfig cfg;
  cfg.num_persons = 80;
  cfg.profile_probability = 0.7;
  cfg.watches_probability = 0.7;
  cfg.min_interests = 0;
  cfg.min_watches = 0;
  const std::string doc = XMarkGenerator(cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 15;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();
  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  for (const char* expr :
       {"person[profile//interest]//watch", "person[watches]/profile/interest",
        "person[profile][watches]//phone",
        "site//person[address/city]//interest"}) {
    Twig(&db, expr);
  }
}

TEST(TwigQueryTest, SyntheticRandomTwigs) {
  SyntheticConfig cfg;
  cfg.target_elements = 600;
  cfg.num_tags = 3;
  cfg.seed = 61;
  const std::string doc = SyntheticGenerator(cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 8;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();
  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  for (const char* expr : {"t0[t1]//t2", "t0[t1//t2]", "t1[t0][t2]",
                           "root[t0]//t1/t2", "t0[t0]//t0"}) {
    Twig(&db, expr);
  }
}

TEST(TwigQueryTest, EmptyAndUnknown) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b/></a>", 0).ok());
  EXPECT_TRUE(Twig(&db, "a[zz]").refs.empty());
  EXPECT_TRUE(Twig(&db, "zz[a]").refs.empty());
  EXPECT_TRUE(EvaluateQuery(nullptr, QuerySyntax::kTwig, "a[b]")
                  .status()
                  .IsInvalidArgument());
}

TEST(TwigQueryTest, StatsCountJoins) {
  LazyDatabase db;
  // The second p has neither x nor y: the summary proves neither
  // predicate, and each edge joins once.
  ASSERT_TRUE(
      db.InsertSegment("<r><p><x/><y/><out/></p><p><out/></p></r>", 0).ok());
  EXPECT_EQ(Twig(&db, "p[x][y]//out").joins_executed, 3u);  // p-x, p-y, p-out
}

}  // namespace
}  // namespace lazyxml
