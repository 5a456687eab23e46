// Scenario tests mirroring the paper's §5 setups at test scale: the
// Fig. 14 XMark queries over a chopped auction document, and the §1
// motivating scenarios (DBLP-style batch feeds, an online registration
// system) exercised through the public facade.

#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/strings.h"
#include "core/lazy_database.h"
#include "join/stack_tree.h"
#include "tests/testutil.h"
#include "xmlgen/chopper.h"
#include "xmlgen/xmark_generator.h"

namespace lazyxml {
namespace {

struct XMarkQuery {
  const char* name;
  const char* ancestor;
  const char* descendant;
};

// Fig. 14 of the paper.
constexpr XMarkQuery kQueries[] = {
    {"Q1", "person", "phone"},   {"Q2", "profile", "interest"},
    {"Q3", "watches", "watch"},  {"Q4", "person", "watch"},
    {"Q5", "person", "interest"}};

class XMarkQueriesTest
    : public ::testing::TestWithParam<std::tuple<int, LogMode>> {};

TEST_P(XMarkQueriesTest, Fig14QueriesMatchOracleOnChoppedXMark) {
  const int num_segments = std::get<0>(GetParam());
  const LogMode mode = std::get<1>(GetParam());
  XMarkConfig xcfg;
  xcfg.num_persons = 150;
  xcfg.num_items = 30;
  xcfg.num_open_auctions = 20;
  xcfg.profile_probability = 1.0;
  xcfg.watches_probability = 1.0;
  xcfg.min_interests = 1;
  xcfg.min_watches = 1;
  const std::string doc = XMarkGenerator(xcfg).Generate().ValueOrDie();

  ChopConfig chop;
  chop.num_segments = num_segments;
  chop.shape = ErTreeShape::kBalanced;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();

  LazyDatabaseOptions dbo;
  dbo.mode = mode;
  LazyDatabase db(dbo);
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  ASSERT_TRUE(db.CheckInvariants().ok());

  for (const XMarkQuery& q : kQueries) {
    auto lazy = db.JoinGlobal(q.ancestor, q.descendant).ValueOrDie();
    auto oracle = testutil::OracleJoin(doc, q.ancestor, q.descendant);
    EXPECT_EQ(lazy, oracle) << q.name;
    EXPECT_GT(lazy.size(), 0u) << q.name << " should have results";
    // STD over materialized lists agrees too.
    auto a = db.MaterializeGlobalElements(q.ancestor).ValueOrDie();
    auto d = db.MaterializeGlobalElements(q.descendant).ValueOrDie();
    auto std_pairs = StackTreeDesc(a, d);
    std::sort(std_pairs.begin(), std_pairs.end());
    EXPECT_EQ(std_pairs, oracle) << q.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, XMarkQueriesTest,
    ::testing::Combine(::testing::Values(10, 50),
                       ::testing::Values(LogMode::kLazyDynamic,
                                         LogMode::kLazyStatic)),
    [](const ::testing::TestParamInfo<std::tuple<int, LogMode>>& info) {
      return "seg" + std::to_string(std::get<0>(info.param)) + "_" +
             LogModeName(std::get<1>(info.param));
    });

TEST(PaperScenariosTest, DblpStyleDailyBatchAppends) {
  // §1: "almost each day new articles and proceedings need to be added".
  // Model: a dblp container; each day appends a batch segment of
  // articles at the end of the container.
  LazyDatabase db;
  std::string shadow = "<dblp></dblp>";
  ASSERT_TRUE(db.InsertSegment(shadow, 0).ok());
  Random rng(3);
  for (int day = 0; day < 25; ++day) {
    std::string batch = "<batch>";
    const int articles = 1 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < articles; ++i) {
      batch += StringPrintf(
          "<article><author>a%d</author><title>t%d</title>"
          "<year>200%d</year></article>",
          day, i, day % 10);
    }
    batch += "</batch>";
    const uint64_t gp = shadow.size() - 7;  // just before </dblp>
    ASSERT_TRUE(db.InsertSegment(batch, gp).ok());
    testutil::SpliceInsert(&shadow, batch, gp);
  }
  ASSERT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.Stats().num_segments, 26u);
  auto got = db.JoinGlobal("article", "author").ValueOrDie();
  EXPECT_EQ(got, testutil::OracleJoin(shadow, "article", "author"));
  auto batches = db.JoinGlobal("dblp", "article").ValueOrDie();
  EXPECT_EQ(batches, testutil::OracleJoin(shadow, "dblp", "article"));
}

TEST(PaperScenariosTest, RegistrationSystemInsertsAndRetractions) {
  // §1: every submitted form inserts a multi-element segment; some users
  // later cancel (their whole segment is removed).
  LazyDatabase db;
  std::string shadow = "<registrations></registrations>";
  ASSERT_TRUE(db.InsertSegment(shadow, 0).ok());
  struct Form {
    uint64_t gp;
    size_t len;
  };
  std::vector<Form> forms;
  for (int u = 0; u < 30; ++u) {
    std::string form = StringPrintf(
        "<registration><id>u%d</id><name>user %d</name>"
        "<occupation>tester</occupation><email>u%d@x.org</email>"
        "</registration>",
        u, u, u);
    const uint64_t gp = shadow.size() - 16;  // before </registrations>
    ASSERT_TRUE(db.InsertSegment(form, gp).ok());
    testutil::SpliceInsert(&shadow, form, gp);
    forms.push_back(Form{gp, form.size()});
  }
  // Users cancel in LIFO order for the first ten (positions stay valid:
  // each removed form is the one right before </registrations>).
  for (int i = 0; i < 10; ++i) {
    const Form f = forms.back();
    forms.pop_back();
    ASSERT_TRUE(db.RemoveSegment(f.gp, f.len).ok());
    testutil::SpliceRemove(&shadow, f.gp, f.len);
  }
  ASSERT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.Stats().num_segments, 21u);  // container + 20 forms
  auto got = db.JoinGlobal("registration", "id").ValueOrDie();
  auto want = testutil::OracleJoin(shadow, "registration", "id");
  EXPECT_EQ(got, want);
  EXPECT_EQ(got.size(), 20u);
}

TEST(PaperScenariosTest, SuperDocumentFromManyDocuments) {
  // §3.1: the whole database is one super document of independent
  // documents under the dummy root; documents arrive in any order.
  LazyDatabase db;
  std::string shadow;
  const char* docs[] = {"<d1><x/></d1>", "<d2><x/><x/></d2>",
                        "<d3></d3>", "<d4><y><x/></y></d4>"};
  // Insert at front each time: later documents end up first.
  for (const char* d : docs) {
    ASSERT_TRUE(db.InsertSegment(d, 0).ok());
    testutil::SpliceInsert(&shadow, d, 0);
  }
  ASSERT_TRUE(db.CheckInvariants().ok());
  auto got = db.MaterializeGlobalElements("x").ValueOrDie();
  auto want = testutil::ElementsOf(shadow, "x");
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
  // Root children are the four documents, none nested in another.
  EXPECT_EQ(db.update_log().root()->children.size(), 4u);
}

}  // namespace
}  // namespace lazyxml
