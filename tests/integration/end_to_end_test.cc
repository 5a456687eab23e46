// Cross-module integration: workload plans and chopped documents loaded
// into LazyDatabase; Lazy-Join checked against Stack-Tree-Desc over
// materialized global lists and against the text oracle.

#include <algorithm>

#include <gtest/gtest.h>

#include "core/lazy_database.h"
#include "join/stack_tree.h"
#include "tests/testutil.h"
#include "xmlgen/chopper.h"
#include "xmlgen/join_workload.h"
#include "xmlgen/synthetic_generator.h"

namespace lazyxml {
namespace {

struct WorkloadParam {
  uint32_t segments;
  ErTreeShape shape;
  double cross_fraction;
  LogMode mode;
};

class WorkloadEndToEnd : public ::testing::TestWithParam<WorkloadParam> {};

TEST_P(WorkloadEndToEnd, LazyJoinMatchesStdAndOracle) {
  const WorkloadParam p = GetParam();
  JoinWorkloadConfig cfg;
  cfg.num_segments = p.segments;
  cfg.shape = p.shape;
  cfg.total_joins = 500;
  cfg.cross_fraction = p.cross_fraction;
  cfg.num_a_elements = 1200;
  cfg.num_d_elements = 1200;
  auto plan = BuildJoinWorkload(cfg).ValueOrDie();

  LazyDatabaseOptions dbo;
  dbo.mode = p.mode;
  LazyDatabase db(dbo);
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  ASSERT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.Stats().num_segments, p.segments);

  const std::string shadow = testutil::ApplyPlanToString(plan.insertions);

  // Lazy-Join result (canonical global pairs).
  auto lazy = db.JoinGlobal("A", "D").ValueOrDie();
  // The lazy result split must match the plan.
  auto raw = db.JoinByName("A", "D").ValueOrDie();
  EXPECT_EQ(raw.stats.in_segment_pairs, plan.in_segment_joins);
  EXPECT_EQ(raw.stats.cross_segment_pairs, plan.cross_segment_joins);

  // STD over materialized global element lists.
  auto a_list = db.MaterializeGlobalElements("A").ValueOrDie();
  auto d_list = db.MaterializeGlobalElements("D").ValueOrDie();
  auto std_pairs = StackTreeDesc(a_list, d_list);
  std::sort(std_pairs.begin(), std_pairs.end());

  // Text oracle.
  auto oracle = testutil::OracleJoin(shadow, "A", "D");

  EXPECT_EQ(lazy, oracle);
  EXPECT_EQ(std_pairs, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WorkloadEndToEnd,
    ::testing::Values(
        WorkloadParam{10, ErTreeShape::kBalanced, 0.0, LogMode::kLazyDynamic},
        WorkloadParam{10, ErTreeShape::kBalanced, 0.5, LogMode::kLazyDynamic},
        WorkloadParam{10, ErTreeShape::kBalanced, 1.0, LogMode::kLazyDynamic},
        WorkloadParam{10, ErTreeShape::kNested, 0.0, LogMode::kLazyDynamic},
        WorkloadParam{10, ErTreeShape::kNested, 0.5, LogMode::kLazyDynamic},
        WorkloadParam{10, ErTreeShape::kNested, 1.0, LogMode::kLazyDynamic},
        WorkloadParam{25, ErTreeShape::kBalanced, 0.3, LogMode::kLazyStatic},
        WorkloadParam{25, ErTreeShape::kNested, 0.7, LogMode::kLazyStatic}),
    [](const ::testing::TestParamInfo<WorkloadParam>& info) {
      return std::string(ErTreeShapeName(info.param.shape)) + "_s" +
             std::to_string(info.param.segments) + "_c" +
             std::to_string(static_cast<int>(info.param.cross_fraction *
                                             100)) +
             "_" + LogModeName(info.param.mode);
    });

struct ChopParam {
  uint32_t segments;
  ErTreeShape shape;
};

class ChoppedDocEndToEnd : public ::testing::TestWithParam<ChopParam> {};

TEST_P(ChoppedDocEndToEnd, ChoppedDocumentQueriesMatchOracle) {
  const ChopParam p = GetParam();
  SyntheticConfig gen_cfg;
  gen_cfg.target_elements = 1500;
  gen_cfg.num_tags = 4;
  gen_cfg.seed = 99;
  gen_cfg.spine_depth = p.shape == ErTreeShape::kNested ? p.segments + 5 : 0;
  const std::string doc =
      SyntheticGenerator(gen_cfg).Generate().ValueOrDie();

  ChopConfig chop;
  chop.num_segments = p.segments;
  chop.shape = p.shape;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();

  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  ASSERT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.Stats().super_document_length, doc.size());

  // Every tag's materialized elements equal a straight parse of the doc.
  for (const char* tag : {"t0", "t1", "t2", "t3", "root", "spine"}) {
    auto got = db.MaterializeGlobalElements(tag).ValueOrDie();
    auto want = testutil::ElementsOf(doc, tag);
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << tag << " #" << i;
    }
  }
  // Joins across tag pairs match the oracle, on both axes.
  for (auto [anc, desc] : std::vector<std::pair<const char*, const char*>>{
           {"t0", "t1"}, {"t1", "t0"}, {"t0", "t0"}, {"root", "t2"}}) {
    auto got = db.JoinGlobal(anc, desc).ValueOrDie();
    auto want = testutil::OracleJoin(doc, anc, desc);
    EXPECT_EQ(got, want) << anc << "//" << desc;
    LazyJoinOptions pc;
    pc.parent_child = true;
    auto got_pc = db.JoinGlobal(anc, desc, pc).ValueOrDie();
    auto want_pc = testutil::OracleJoin(doc, anc, desc,
                                        /*parent_child=*/true);
    EXPECT_EQ(got_pc, want_pc) << anc << "/" << desc;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChoppedDocEndToEnd,
    ::testing::Values(ChopParam{2, ErTreeShape::kBalanced},
                      ChopParam{10, ErTreeShape::kBalanced},
                      ChopParam{40, ErTreeShape::kBalanced},
                      ChopParam{5, ErTreeShape::kNested},
                      ChopParam{15, ErTreeShape::kNested}),
    [](const ::testing::TestParamInfo<ChopParam>& info) {
      return std::string(ErTreeShapeName(info.param.shape)) +
             std::to_string(info.param.segments);
    });

TEST(EndToEndTest, OptimizationAblationAgreesOnChoppedDoc) {
  SyntheticConfig gen_cfg;
  gen_cfg.target_elements = 800;
  gen_cfg.num_tags = 3;
  gen_cfg.seed = 5;
  const std::string doc = SyntheticGenerator(gen_cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 12;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();
  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  LazyJoinOptions on;
  on.optimize_stack = true;
  LazyJoinOptions off;
  off.optimize_stack = false;
  for (auto [anc, desc] : std::vector<std::pair<const char*, const char*>>{
           {"t0", "t1"}, {"t2", "t0"}, {"root", "t1"}}) {
    EXPECT_EQ(db.JoinGlobal(anc, desc, on).ValueOrDie(),
              db.JoinGlobal(anc, desc, off).ValueOrDie())
        << anc << "//" << desc;
  }
}

}  // namespace
}  // namespace lazyxml
