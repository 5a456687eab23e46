#include "check/database_check.h"

#include <gtest/gtest.h>

#include "core/lazy_database.h"
#include "xml/element_record.h"

namespace lazyxml {
namespace check {
namespace {

// A database with nested segments, a removal and a collapse — every
// structure populated and every op class represented.
std::unique_ptr<LazyDatabase> BuildPopulated(
    LogMode mode = LogMode::kLazyDynamic) {
  LazyDatabaseOptions options;
  options.mode = mode;
  auto db = std::make_unique<LazyDatabase>(options);
  EXPECT_TRUE(db->InsertSegment("<a><b>xx</b><c>yy</c></a>", 0).ok());
  EXPECT_TRUE(db->InsertSegment("<d><b>z</b></d>", 6).ok());  // inside <b>
  EXPECT_TRUE(db->RemoveSegment(27, 9).ok());  // the shifted "<c>yy</c>"
  return db;
}

TEST(DatabaseCheckTest, FreshDatabaseIsClean) {
  LazyDatabase db;
  auto report = CheckDatabase(db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().ok()) << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, PopulatedDatabaseIsClean) {
  auto db = BuildPopulated();
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().ok()) << report.ValueOrDie().ToString();
  EXPECT_GT(report.ValueOrDie().objects_scanned(), 0u);
}

TEST(DatabaseCheckTest, LazyStaticCleanBeforeAndAfterFreeze) {
  auto db = BuildPopulated(LogMode::kLazyStatic);
  auto before = CheckDatabase(*db);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.ValueOrDie().ok()) << before.ValueOrDie().ToString();
  db->Freeze();
  auto after = CheckDatabase(*db);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.ValueOrDie().ok()) << after.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, CheckInvariantsDelegatesToScrubber) {
  auto db = BuildPopulated();
  EXPECT_TRUE(db->CheckInvariants().ok());
  SegmentNode* node = db->mutable_update_log().NodeOf(2);
  ASSERT_NE(node, nullptr);
  node->gaps.push_back(FrozenGap{9, 9});  // empty gap: impossible by design
  Status status = db->CheckInvariants();
  ASSERT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_NE(status.ToString().find("gap-empty"), std::string::npos);
}

TEST(DatabaseCheckTest, ChildEscapingParentDetected) {
  auto db = BuildPopulated();
  SegmentNode* child = db->mutable_update_log().NodeOf(2);
  ASSERT_NE(child, nullptr);
  child->l += 1000;  // now ends past its parent
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.ValueOrDie().ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("child-escapes-parent"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, OverlappingGapsDetected) {
  auto db = BuildPopulated();
  SegmentNode* node = db->mutable_update_log().NodeOf(1);
  ASSERT_NE(node, nullptr);
  node->gaps.clear();
  node->gaps.push_back(FrozenGap{3, 7});
  node->gaps.push_back(FrozenGap{6, 9});
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("gap-overlap"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, DistinctTagOrderViolationDetected) {
  auto db = BuildPopulated();
  SegmentNode* node = db->mutable_update_log().NodeOf(1);
  ASSERT_NE(node, nullptr);
  ASSERT_GE(node->distinct_tags.size(), 2u);
  std::swap(node->distinct_tags.front(), node->distinct_tags.back());
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("distinct-tags-order"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, DanglingElementRecordDetected) {
  auto db = BuildPopulated();
  ElementRecord rec;
  rec.tid = 0;
  rec.start = 1;
  rec.end = 3;
  rec.level = 1;
  ASSERT_TRUE(db->mutable_element_index()
                  .InsertRecords(/*sid=*/999, {&rec, 1})
                  .ok());
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("dangling-sid"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, LevelBelowSpliceDepthDetected) {
  auto db = BuildPopulated();
  SegmentNode* node = db->mutable_update_log().NodeOf(2);
  ASSERT_NE(node, nullptr);
  node->base_level = 100;  // records of sid 2 now sit at/below base_level
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("level-below-base"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, TagListCountMismatchDetected) {
  LazyDatabase database;
  ASSERT_TRUE(database.InsertSegment("<a><b>x</b><b>y</b></a>", 0).ok());
  UpdateLog& log = database.mutable_update_log();
  // Steal one occurrence from a live tag-list entry; the element index
  // still holds the record, so the bidirectional tally must trip.
  bool tampered = false;
  log.tag_list().ForEachEntry([&](TagId tid, const TagListEntry& e) {
    if (e.count >= 2) {
      EXPECT_TRUE(
          log.tag_list().RemoveOccurrences(tid, e.sid(), 1, log).ok());
      tampered = true;
      return false;
    }
    return true;
  });
  ASSERT_TRUE(tampered);
  auto report = CheckDatabase(database);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("count-mismatch"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, MissingTagListEntryDetected) {
  auto db = BuildPopulated();
  UpdateLog& log = db->mutable_update_log();
  // Drop a whole entry while its records stay indexed.
  TagId victim_tid = 0;
  SegmentId victim_sid = 0;
  uint64_t victim_count = 0;
  log.tag_list().ForEachEntry([&](TagId tid, const TagListEntry& e) {
    victim_tid = tid;
    victim_sid = e.sid();
    victim_count = e.count;
    return false;
  });
  ASSERT_GT(victim_count, 0u);
  EXPECT_TRUE(log.tag_list()
                  .RemoveOccurrences(victim_tid, victim_sid, victim_count, log)
                  .ok());
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("entry-miss"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, StaleDistinctTagsIsInfoNotError) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b>x</b><c>y</c></a>", 0).ok());
  // Remove exactly "<b>x</b>": tag b loses its only record, but the
  // segment's distinct_tags keeps it — by-design laziness, not damage.
  ASSERT_TRUE(db.RemoveSegment(3, 8).ok());
  auto report = CheckDatabase(db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().ok()) << report.ValueOrDie().ToString();
  EXPECT_TRUE(report.ValueOrDie().HasCode("distinct-tags-stale"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, SummaryMissDetected) {
  auto db = BuildPopulated();
  SegmentNode* node = db->mutable_update_log().NodeOf(1);
  ASSERT_NE(node, nullptr);
  ASSERT_FALSE(node->summary.empty());
  node->summary.clear();  // live records now have no summary backing
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("summary-miss"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, FalseStrongEdgeDetected) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<r><p><x/></p><p/><q><y/></q></r>", 0).ok());
  const PathSummary* ps = db.path_summary();
  ASSERT_NE(ps, nullptr);
  const TagDict& dict = db.tag_dict();
  const uint32_t r = ps->Find(PathSummary::kRootNode,
                              dict.Lookup("r").ValueOrDie());
  const uint32_t p = ps->Find(r, dict.Lookup("p").ValueOrDie());
  const uint32_t x = ps->Find(p, dict.Lookup("x").ValueOrDie());
  const uint32_t q = ps->Find(r, dict.Lookup("q").ValueOrDie());
  const uint32_t y = ps->Find(q, dict.Lookup("y").ValueOrDie());
  ASSERT_EQ(ps->edge_state(x), EdgeState::kWeak);
  ASSERT_EQ(ps->edge_state(y), EdgeState::kStrong);
  // A state that says less than the truth is conservative, not an error.
  ps->SetEdgeState(y, EdgeState::kUnknown);
  auto clean = CheckDatabase(db);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean.ValueOrDie().ok()) << clean.ValueOrDie().ToString();
  // The second p has no x: claiming p -> x strong is false.
  ps->SetEdgeState(x, EdgeState::kStrong);
  auto report = CheckDatabase(db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("false-strong-edge"))
      << report.ValueOrDie().ToString();
}

TEST(DatabaseCheckTest, ReportsMultipleFaultsInOnePass) {
  auto db = BuildPopulated();
  UpdateLog& log = db->mutable_update_log();
  log.NodeOf(1)->gaps.push_back(FrozenGap{4, 4});
  log.NodeOf(2)->base_level = 100;
  auto report = CheckDatabase(*db);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.ValueOrDie().HasCode("gap-empty"));
  EXPECT_TRUE(report.ValueOrDie().HasCode("level-below-base"));
  EXPECT_GE(report.ValueOrDie().errors(), 2u);
}

}  // namespace
}  // namespace check
}  // namespace lazyxml
