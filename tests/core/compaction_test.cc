// Maintenance-path tests: CollapseSubtree / CompactAll (paper §1's
// "maintenance hours" log clearing and §5.3's segment collapsing).

#include <gtest/gtest.h>

#include "core/lazy_database.h"
#include "tests/testutil.h"
#include "xmlgen/chopper.h"
#include "xmlgen/synthetic_generator.h"

namespace lazyxml {
namespace {

std::string MakeDoc(uint64_t elements, uint32_t spine = 0, uint64_t seed = 4) {
  SyntheticConfig cfg;
  cfg.target_elements = elements;
  cfg.spine_depth = spine;
  cfg.seed = seed;
  cfg.num_tags = 4;
  return SyntheticGenerator(cfg).Generate().ValueOrDie();
}

void LoadChopped(LazyDatabase* db, const std::string& doc, uint32_t segments,
                 ErTreeShape shape) {
  ChopConfig cfg;
  cfg.num_segments = segments;
  cfg.shape = shape;
  auto plan = BuildChopPlan(doc, cfg).ValueOrDie();
  ASSERT_TRUE(ApplyPlan(db, plan.insertions).ok());
}

void ExpectAllQueriesMatch(LazyDatabase* db, const std::string& doc) {
  for (const char* tag : {"root", "t0", "t1", "t2", "t3"}) {
    auto got = db->MaterializeGlobalElements(tag).ValueOrDie();
    auto want = testutil::ElementsOf(doc, tag);
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << tag << " #" << i;
    }
  }
  for (auto [a, d] : std::vector<std::pair<const char*, const char*>>{
           {"t0", "t1"}, {"root", "t2"}, {"t1", "t1"}}) {
    EXPECT_EQ(db->JoinGlobal(a, d).ValueOrDie(),
              testutil::OracleJoin(doc, a, d))
        << a << "//" << d;
  }
}

// Guard for the mutation-epoch accounting of the maintenance path (the
// epoch stamps the path summary and pins read views).
// Audit result (kept as a regression net): CollapseSubtree bumps the
// mutation epoch exactly once, at entry; CompactAll adds no bump of its
// own — it delegates to CollapseSubtree per top-level segment — so the
// epoch advances exactly once per structural change (read views pinned
// before maintenance see the old state; join results stay correct).
TEST(CompactionTest, EpochBumpsExactlyOncePerCollapse_JoinCompactJoin) {
  LazyDatabase db;
  std::string shadow;
  // Five top-level sibling segments, each given a nested child segment,
  // so CompactAll performs five real multi-segment collapses.
  for (int i = 0; i < 5; ++i) {
    const uint64_t base = shadow.size();
    const std::string outer = "<A><D>x</D></A>";
    ASSERT_TRUE(db.InsertSegment(outer, base).ok());
    testutil::SpliceInsert(&shadow, outer, base);
    const std::string inner = "<D><A/></D>";
    ASSERT_TRUE(db.InsertSegment(inner, base + 3).ok());
    testutil::SpliceInsert(&shadow, inner, base + 3);
  }
  ASSERT_EQ(db.update_log().root()->children.size(), 5u);

  const auto want = testutil::OracleJoin(shadow, "A", "D");
  EXPECT_EQ(db.JoinGlobal("A", "D").ValueOrDie(), want);

  const uint64_t epoch_before = db.mutation_epoch();
  ASSERT_TRUE(db.CompactAll().ok());
  EXPECT_EQ(db.mutation_epoch(), epoch_before + 5);
  EXPECT_EQ(db.Stats().num_segments, 5u);

  // Join again: results identical over the collapsed segments.
  EXPECT_EQ(db.JoinGlobal("A", "D").ValueOrDie(), want);
  ASSERT_TRUE(db.CheckInvariants().ok());

  // A single explicit collapse: exactly one bump too.
  const SegmentId one = db.update_log().root()->children[0]->sid;
  const uint64_t epoch_single = db.mutation_epoch();
  ASSERT_TRUE(db.CollapseSubtree(one).ok());
  EXPECT_EQ(db.mutation_epoch(), epoch_single + 1);
  EXPECT_EQ(db.JoinGlobal("A", "D").ValueOrDie(), want);
}

TEST(CompactionTest, CompactAllCollapsesToOneSegment) {
  const std::string doc = MakeDoc(800);
  LazyDatabase db;
  LoadChopped(&db, doc, 20, ErTreeShape::kBalanced);
  ASSERT_EQ(db.Stats().num_segments, 20u);
  const size_t elements_before = db.Stats().num_elements;
  ASSERT_TRUE(db.CompactAll().ok());
  EXPECT_EQ(db.Stats().num_segments, 1u);
  EXPECT_EQ(db.Stats().num_elements, elements_before);
  EXPECT_EQ(db.Stats().super_document_length, doc.size());
  ASSERT_TRUE(db.CheckInvariants().ok());
  ExpectAllQueriesMatch(&db, doc);
}

TEST(CompactionTest, CollapseNestedChain) {
  const std::string doc = MakeDoc(400, /*spine=*/25);
  LazyDatabase db;
  LoadChopped(&db, doc, 12, ErTreeShape::kNested);
  ASSERT_EQ(db.Stats().num_segments, 12u);
  // Collapse the second chain link: everything below it merges.
  const SegmentId second = db.update_log().root()->children[0]->children[0]
                               ->sid;
  auto new_sid = db.CollapseSubtree(second);
  ASSERT_TRUE(new_sid.ok()) << new_sid.status().ToString();
  EXPECT_EQ(db.Stats().num_segments, 2u);  // top chain link + collapsed rest
  ASSERT_TRUE(db.CheckInvariants().ok());
  ExpectAllQueriesMatch(&db, doc);
}

TEST(CompactionTest, CollapseMidStarChild) {
  const std::string doc = MakeDoc(1000);
  LazyDatabase db;
  LoadChopped(&db, doc, 15, ErTreeShape::kBalanced);
  // Collapse one child of the top segment (a leaf: count unchanged, but
  // records re-keyed).
  const SegmentId child =
      db.update_log().root()->children[0]->children[2]->sid;
  auto new_sid = db.CollapseSubtree(child);
  ASSERT_TRUE(new_sid.ok());
  EXPECT_NE(new_sid.ValueOrDie(), child);
  EXPECT_EQ(db.Stats().num_segments, 15u);
  ASSERT_TRUE(db.CheckInvariants().ok());
  ExpectAllQueriesMatch(&db, doc);
}

TEST(CompactionTest, UpdatesKeepWorkingAfterCompaction) {
  std::string doc = MakeDoc(500);
  LazyDatabase db;
  LoadChopped(&db, doc, 10, ErTreeShape::kBalanced);
  ASSERT_TRUE(db.CompactAll().ok());
  // Insert into and remove from the compacted store; shadow in parallel.
  const std::string seg = "<t0><t1/><t1/></t0>";
  const uint64_t at = doc.find('>') + 1;  // just inside the root element
  ASSERT_TRUE(db.InsertSegment(seg, at).ok());
  testutil::SpliceInsert(&doc, seg, at);
  ExpectAllQueriesMatch(&db, doc);
  ASSERT_TRUE(db.RemoveSegment(at, seg.size()).ok());
  testutil::SpliceRemove(&doc, at, seg.size());
  ASSERT_TRUE(db.CheckInvariants().ok());
  ExpectAllQueriesMatch(&db, doc);
  // Compact again after churn.
  ASSERT_TRUE(db.CompactAll().ok());
  ExpectAllQueriesMatch(&db, doc);
}

TEST(CompactionTest, CompactionAfterDeletionsDropsGaps) {
  std::string doc = "<a><b/><c/><b/></a>";
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment(doc, 0).ok());
  ASSERT_TRUE(db.RemoveSegment(7, 4).ok());  // remove <c/>
  testutil::SpliceRemove(&doc, 7, 4);
  const SegmentId top = db.update_log().root()->children[0]->sid;
  EXPECT_FALSE(db.update_log().NodeOf(top)->gaps.empty());
  auto new_sid = db.CollapseSubtree(top).ValueOrDie();
  EXPECT_TRUE(db.update_log().NodeOf(new_sid)->gaps.empty());
  ASSERT_TRUE(db.CheckInvariants().ok());
  auto got = db.MaterializeGlobalElements("b").ValueOrDie();
  auto want = testutil::ElementsOf(doc, "b");
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]);
}

TEST(CompactionTest, CollapseValidation) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a/>", 0).ok());
  EXPECT_TRUE(db.CollapseSubtree(99).status().IsNotFound());
  EXPECT_TRUE(db.CollapseSubtree(kRootSegmentId).status()
                  .IsInvalidArgument());
}

TEST(CompactionTest, CompactEmptyDatabaseIsNoOp) {
  LazyDatabase db;
  EXPECT_TRUE(db.CompactAll().ok());
  EXPECT_EQ(db.Stats().num_segments, 0u);
}

TEST(CompactionTest, LazyStaticModeCompaction) {
  const std::string doc = MakeDoc(300);
  LazyDatabaseOptions opts;
  opts.mode = LogMode::kLazyStatic;
  LazyDatabase db(opts);
  LoadChopped(&db, doc, 8, ErTreeShape::kBalanced);
  ASSERT_TRUE(db.CompactAll().ok());
  EXPECT_EQ(db.Stats().num_segments, 1u);
  ExpectAllQueriesMatch(&db, doc);
  ASSERT_TRUE(db.CheckInvariants().ok());
}

}  // namespace
}  // namespace lazyxml
