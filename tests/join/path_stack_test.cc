#include "join/path_stack.h"

#include <gtest/gtest.h>

#include "core/lazy_database.h"
#include "query/xpath.h"
#include "tests/testutil.h"
#include "xmlgen/chopper.h"
#include "xmlgen/synthetic_generator.h"
#include "xmlgen/xmark_generator.h"

namespace lazyxml {
namespace {

PathStackStep Step(std::vector<GlobalElement> elems, bool desc = true) {
  PathStackStep s;
  s.elements = std::move(elems);
  s.descendant_axis = desc;
  return s;
}

std::vector<uint64_t> Starts(const PathStackResult& r) {
  std::vector<uint64_t> out;
  for (const GlobalElement& e : r.matches) out.push_back(e.start);
  return out;
}

TEST(PathStackTest, EmptyPatternRejected) {
  EXPECT_TRUE(PathStack({}).status().IsInvalidArgument());
}

TEST(PathStackTest, SingleStepReturnsAll) {
  auto r = PathStack({Step({{0, 10, 1}, {20, 30, 1}})}).ValueOrDie();
  EXPECT_EQ(Starts(r), (std::vector<uint64_t>{0, 20}));
}

TEST(PathStackTest, TwoStepDescendant) {
  // a=[0,100) contains d=[10,20); second a=[200,300) contains nothing.
  auto r = PathStack({Step({{0, 100, 1}, {200, 300, 1}}),
                      Step({{10, 20, 2}, {150, 160, 1}})})
               .ValueOrDie();
  EXPECT_EQ(Starts(r), (std::vector<uint64_t>{10}));
}

TEST(PathStackTest, ThreeStepChain) {
  // a ⊃ b ⊃ c matches; b' without an a above contributes nothing.
  auto r = PathStack({Step({{0, 100, 1}}),
                      Step({{10, 50, 2}, {200, 250, 1}}),
                      Step({{20, 30, 3}, {210, 220, 2}})})
               .ValueOrDie();
  EXPECT_EQ(Starts(r), (std::vector<uint64_t>{20}));
}

TEST(PathStackTest, ParentChildAxis) {
  // a at level 1; d at level 2 (child) and level 3 (grandchild).
  auto r = PathStack({Step({{0, 100, 1}}),
                      Step({{10, 20, 2}, {30, 40, 3}}, /*desc=*/false)})
               .ValueOrDie();
  EXPECT_EQ(Starts(r), (std::vector<uint64_t>{10}));
}

TEST(PathStackTest, RepeatedTagDoesNotSelfMatch) {
  // b//b: one lone b must not match itself.
  std::vector<GlobalElement> bs{{0, 100, 1}, {10, 20, 2}};
  auto r = PathStack({Step(bs), Step(bs)}).ValueOrDie();
  EXPECT_EQ(Starts(r), (std::vector<uint64_t>{10}));
  // A single element alone matches nothing.
  auto lone = PathStack({Step({{0, 10, 1}}), Step({{0, 10, 1}})})
                  .ValueOrDie();
  EXPECT_TRUE(lone.matches.empty());
}

TEST(PathStackTest, MatchesPipelineOnDocuments) {
  SyntheticConfig cfg;
  cfg.target_elements = 700;
  cfg.num_tags = 3;
  cfg.seed = 41;
  const std::string doc = SyntheticGenerator(cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 10;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();
  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  for (const char* expr : {"t0//t1", "t0//t1//t2", "t1/t1", "root//t2/t0",
                           "t0//t0//t0"}) {
    auto steps = ParseQuery(QuerySyntax::kPath, expr).ValueOrDie();
    auto holistic = EvaluatePathHolistic(&db, steps).ValueOrDie();
    // Semi-join evaluator result, globalized.
    auto pipeline = EvaluateXPath(&db, steps).ValueOrDie();
    EXPECT_EQ(holistic, pipeline.elements) << expr;
  }
}

TEST(PathStackTest, MatchesPipelineOnXMark) {
  XMarkConfig cfg;
  cfg.num_persons = 60;
  cfg.profile_probability = 1.0;
  cfg.watches_probability = 1.0;
  cfg.min_interests = 1;
  cfg.min_watches = 1;
  const std::string doc = XMarkGenerator(cfg).Generate().ValueOrDie();
  ChopConfig chop;
  chop.num_segments = 12;
  auto plan = BuildChopPlan(doc, chop).ValueOrDie();
  LazyDatabase db;
  ASSERT_TRUE(ApplyPlan(&db, plan.insertions).ok());
  for (const char* expr :
       {"site//person//watch", "people/person/profile/interest",
        "person//watches/watch"}) {
    auto steps = ParseQuery(QuerySyntax::kPath, expr).ValueOrDie();
    auto holistic = EvaluatePathHolistic(&db, steps).ValueOrDie();
    auto pipeline = EvaluateXPath(&db, steps).ValueOrDie();
    EXPECT_EQ(holistic, pipeline.elements) << expr;
    EXPECT_FALSE(holistic.empty()) << expr;
  }
}

TEST(PathStackTest, StatsPopulated) {
  auto r = PathStack({Step({{0, 100, 1}}), Step({{10, 20, 2}})})
               .ValueOrDie();
  EXPECT_EQ(r.stats.elements_scanned, 2u);
  EXPECT_EQ(r.stats.pushes, 1u);
}

}  // namespace
}  // namespace lazyxml
