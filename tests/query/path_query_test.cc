// PATH syntax (predicate- and wildcard-free paths such as
// "person//profile/interest"), parsed into XPathSteps and evaluated by the
// shared evaluator; every answer is checked against the naive oracle.

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

XPathResult Path(LazyDatabase* db, std::string_view expr) {
  return ExpectMatchesNaive(db, QuerySyntax::kPath, expr);
}

TEST(PathParseTest, BasicForms) {
  auto steps = ParseQuery(QuerySyntax::kPath, "a//b/c").ValueOrDie();
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_EQ(steps[0].name, "a");
  EXPECT_EQ(steps[1].name, "b");
  EXPECT_TRUE(steps[1].descendant_axis);
  EXPECT_EQ(steps[2].name, "c");
  EXPECT_FALSE(steps[2].descendant_axis);
}

TEST(PathParseTest, LeadingAxisAllowed) {
  EXPECT_TRUE(ParseQuery(QuerySyntax::kPath, "//a").ok());
  EXPECT_TRUE(ParseQuery(QuerySyntax::kPath, "/a").ok());
  EXPECT_EQ(ParseQuery(QuerySyntax::kPath, "//a//b").ValueOrDie().size(), 2u);
  // Names follow the XML scanner: ':' is a name character.
  EXPECT_EQ(ParseQuery(QuerySyntax::kPath, "ns:a/b").ValueOrDie()[0].name,
            "ns:a");
}

TEST(PathParseTest, SingleStep) {
  auto steps = ParseQuery(QuerySyntax::kPath, "person").ValueOrDie();
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].name, "person");
}

TEST(PathParseTest, Rejections) {
  for (const char* bad : {"", "//", "a//", "a///b", "a//b c", "1bad", "////a",
                          "a[b]", "a/*", "*"}) {
    auto r = ParseQuery(QuerySyntax::kPath, bad);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << bad;
  }
}

TEST(PathQueryTest, SingleStepListsAllElements) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b/><c><b/></c></a>", 0).ok());
  EXPECT_EQ(Path(&db, "b").refs.size(), 2u);
}

TEST(PathQueryTest, UnknownTagEmpty) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b/></a>", 0).ok());
  EXPECT_TRUE(Path(&db, "zz").refs.empty());
  EXPECT_TRUE(Path(&db, "a//zz").refs.empty());
  EXPECT_TRUE(Path(&db, "zz//b").refs.empty());
}

TEST(PathQueryTest, TwoStepMatchesJoin) {
  LazyDatabase db;
  ASSERT_TRUE(
      db.InsertSegment("<a><b><c/></b><c/><b><b><c/></b></b></a>", 0).ok());
  EXPECT_EQ(Path(&db, "b//c").refs.size(), 2u);
}

TEST(PathQueryTest, ThreeStepChainFilters) {
  LazyDatabase db;
  // c under b under a matches; c under b NOT under a must not.
  ASSERT_TRUE(
      db.InsertSegment("<r><a><b><c/></b></a><b><c/></b></r>", 0).ok());
  EXPECT_EQ(Path(&db, "a//b//c").refs.size(), 1u);
}

TEST(PathQueryTest, ChildAxisFiltersLevels) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b/><x><b/></x></a>", 0).ok());
  EXPECT_EQ(Path(&db, "a/b").refs.size(), 1u);
  EXPECT_EQ(Path(&db, "a//b").refs.size(), 2u);
}

TEST(PathQueryTest, DeduplicatesAcrossMultipleAncestors) {
  // The summary answers b//c without a join (every c lies below a b), so
  // it is off here: the join's two pairs must collapse to one row.
  LazyDatabaseOptions opts;
  opts.query.use_path_summary = false;
  LazyDatabase db(opts);
  // One c under two nested b ancestors: it must be reported once.
  ASSERT_TRUE(db.InsertSegment("<a><b><b><c/></b></b></a>", 0).ok());
  const XPathResult r = Path(&db, "b//c");
  EXPECT_EQ(r.refs.size(), 1u);
  EXPECT_GE(r.intermediate_pairs, 2u);
}

TEST(PathQueryTest, AcrossSegments) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b></b></a>", 0).ok());
  ASSERT_TRUE(db.InsertSegment("<b><c/></b>", 6).ok());  // inside inner <b>
  ASSERT_TRUE(db.InsertSegment("<c></c>", 6 + 3).ok());  // inside its <b>
  for (const char* expr : {"a//b//c", "a//c", "b//c", "a/b", "b/c"}) {
    Path(&db, expr);
  }
  EXPECT_EQ(Path(&db, "a//c").refs.size(), 2u);
}

TEST(PathQueryTest, XMarkChoppedPaths) {
  XMarkConfig cfg;
  cfg.num_persons = 80;
  cfg.profile_probability = 1.0;
  cfg.watches_probability = 1.0;
  cfg.min_interests = 1;
  cfg.min_watches = 1;
  const std::string doc = XMarkGenerator(cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 20;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();
  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  for (const char* expr :
       {"person//interest", "person/profile/interest", "site//person//watch",
        "people/person/watches/watch", "person//profile"}) {
    EXPECT_FALSE(Path(&db, expr).refs.empty()) << expr;
  }
}

TEST(PathQueryTest, SyntheticRandomPaths) {
  SyntheticConfig cfg;
  cfg.target_elements = 600;
  cfg.num_tags = 3;
  cfg.seed = 31;
  const std::string doc = SyntheticGenerator(cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 8;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();
  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  for (const char* expr : {"t0//t1//t2", "t1/t1", "t2//t0/t1",
                           "root//t0//t0"}) {
    Path(&db, expr);
  }
}

TEST(PathQueryTest, NullDatabaseRejected) {
  EXPECT_TRUE(EvaluateQuery(nullptr, QuerySyntax::kPath, "a//b")
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace lazyxml
