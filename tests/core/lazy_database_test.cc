#include "core/lazy_database.h"

#include <gtest/gtest.h>

#include "tests/testutil.h"

namespace lazyxml {
namespace {

TEST(LazyDatabaseTest, EmptyDatabase) {
  LazyDatabase db;
  auto s = db.Stats();
  EXPECT_EQ(s.num_segments, 0u);
  EXPECT_EQ(s.num_elements, 0u);
  EXPECT_EQ(s.super_document_length, 0u);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(LazyDatabaseTest, InsertSegmentIndexesElements) {
  LazyDatabase db;
  auto sid = db.InsertSegment("<a><b/><b/></a>", 0);
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ(sid.ValueOrDie(), 1u);
  auto s = db.Stats();
  EXPECT_EQ(s.num_segments, 1u);
  EXPECT_EQ(s.num_elements, 3u);
  EXPECT_EQ(s.num_tags, 2u);
  EXPECT_EQ(s.super_document_length, 15u);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(LazyDatabaseTest, MalformedSegmentRejectedWithoutSideEffects) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a></a>", 0).ok());
  const auto before = db.Stats();
  EXPECT_TRUE(db.InsertSegment("<b>", 3).status().IsParseError());
  EXPECT_TRUE(db.InsertSegment("<b/><c/>", 3).status().IsParseError());
  const auto after = db.Stats();
  EXPECT_EQ(before.num_segments, after.num_segments);
  EXPECT_EQ(before.num_elements, after.num_elements);
  EXPECT_EQ(before.super_document_length, after.super_document_length);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(LazyDatabaseTest, InsertOutOfRangeRejected) {
  LazyDatabase db;
  EXPECT_TRUE(db.InsertSegment("<a/>", 5).status().IsOutOfRange());
}

TEST(LazyDatabaseTest, AbsoluteLevelsAcrossSegments) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b></b></a>", 0).ok());
  // Splice inside <b> (global 6): new segment's root element has level 3.
  ASSERT_TRUE(db.InsertSegment("<c><d/></c>", 6).ok());
  auto c = db.MaterializeGlobalElements("c").ValueOrDie();
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].level, 3u);
  auto d = db.MaterializeGlobalElements("d").ValueOrDie();
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].level, 4u);
  // Splice into the *whitespace-free* top of the inner segment:
  // global position of <d/> start is 6+3=9; insert before it, inside <c>.
  ASSERT_TRUE(db.InsertSegment("<e/>", 9).ok());
  auto e = db.MaterializeGlobalElements("e").ValueOrDie();
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].level, 4u);
}

TEST(LazyDatabaseTest, MaterializeMatchesShadowText) {
  LazyDatabase db;
  std::string shadow;
  auto insert = [&](std::string_view text, uint64_t gp) {
    ASSERT_TRUE(db.InsertSegment(text, gp).ok());
    testutil::SpliceInsert(&shadow, text, gp);
  };
  insert("<a><b/><c><b/></c></a>", 0);
  insert("<x><b/></x>", 10);
  insert("<y/>", 13);  // just inside <x>
  ASSERT_TRUE(db.CheckInvariants().ok());
  for (const char* tag : {"a", "b", "c", "x", "y"}) {
    auto got = db.MaterializeGlobalElements(tag).ValueOrDie();
    auto want = testutil::ElementsOf(shadow, tag);
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << tag << " #" << i;
    }
  }
}

TEST(LazyDatabaseTest, MaterializeUnknownTagEmpty) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a/>", 0).ok());
  EXPECT_TRUE(db.MaterializeGlobalElements("zzz").ValueOrDie().empty());
}

TEST(LazyDatabaseTest, RemoveWholeSegment) {
  LazyDatabase db;
  std::string shadow;
  ASSERT_TRUE(db.InsertSegment("<a><w></w></a>", 0).ok());
  shadow = "<a><w></w></a>";
  const std::string seg2 = "<x><b/></x>";
  ASSERT_TRUE(db.InsertSegment(seg2, 6).ok());
  testutil::SpliceInsert(&shadow, seg2, 6);
  // Remove segment 2 entirely.
  ASSERT_TRUE(db.RemoveSegment(6, seg2.size()).ok());
  testutil::SpliceRemove(&shadow, 6, seg2.size());
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.Stats().num_segments, 1u);
  EXPECT_EQ(db.Stats().super_document_length, shadow.size());
  EXPECT_TRUE(db.MaterializeGlobalElements("x").ValueOrDie().empty());
  EXPECT_TRUE(db.MaterializeGlobalElements("b").ValueOrDie().empty());
  auto a = db.MaterializeGlobalElements("a").ValueOrDie();
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a[0], testutil::ElementsOf(shadow, "a")[0]);
}

TEST(LazyDatabaseTest, RemovePartOfSegmentOwnText) {
  LazyDatabase db;
  std::string shadow = "<a><b/><c/><b/></a>";
  ASSERT_TRUE(db.InsertSegment(shadow, 0).ok());
  // Remove "<c/>" at [7, 11).
  ASSERT_TRUE(db.RemoveSegment(7, 4).ok());
  testutil::SpliceRemove(&shadow, 7, 4);
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_TRUE(db.MaterializeGlobalElements("c").ValueOrDie().empty());
  auto b = db.MaterializeGlobalElements("b").ValueOrDie();
  auto want = testutil::ElementsOf(shadow, "b");
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b[0], want[0]);
  EXPECT_EQ(b[1], want[1]);
}

TEST(LazyDatabaseTest, RemoveSplittingElementRejectedAtomically) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b/><c/></a>", 0).ok());
  const auto before = db.Stats();
  // [5, 9) splits <b/> and <c/>.
  EXPECT_TRUE(db.RemoveSegment(5, 4).IsCorruption());
  const auto after = db.Stats();
  EXPECT_EQ(before.num_elements, after.num_elements);
  EXPECT_EQ(before.super_document_length, after.super_document_length);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(LazyDatabaseTest, InsertAfterRemovalKeepsJoinsCorrect) {
  LazyDatabase db;
  std::string shadow;
  auto insert = [&](std::string_view text, uint64_t gp) {
    ASSERT_TRUE(db.InsertSegment(text, gp).ok());
    testutil::SpliceInsert(&shadow, text, gp);
  };
  insert("<seg><A><D/></A><A><W></W></A></seg>", 0);
  // Remove the "<D/>" at [8, 12).
  ASSERT_TRUE(db.RemoveSegment(8, 4).ok());
  testutil::SpliceRemove(&shadow, 8, 4);
  // Insert a D-carrying segment inside the second <A>'s <W> element.
  const uint64_t hole = shadow.find("<W>") + 3;
  insert("<D></D>", hole);
  auto got = db.JoinGlobal("A", "D").ValueOrDie();
  auto want = testutil::OracleJoin(shadow, "A", "D");
  EXPECT_EQ(got, want);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(LazyDatabaseTest, SpliceBetweenTwoRemovedRunsKeepsSiblingOrder) {
  // A segment spliced where two removed runs of its parent's own text
  // meet: the runs merge into one gap, and the splice point must not be
  // left inside it, or a later insert at the same global point is placed
  // after it in frozen order while it precedes it in the document.
  LazyDatabase db;
  std::string shadow;
  auto insert = [&](std::string_view text, uint64_t gp) {
    ASSERT_TRUE(db.InsertSegment(text, gp).ok());
    testutil::SpliceInsert(&shadow, text, gp);
  };
  auto remove = [&](uint64_t gp, uint64_t len) {
    ASSERT_TRUE(db.RemoveSegment(gp, len).ok());
    testutil::SpliceRemove(&shadow, gp, len);
  };
  insert("<r><p><w/></p><p><w/></p></r>", 0);
  const std::string p = "<p><D/></p>";
  remove(3, 11);   // the first <p>: own text [3, 14) becomes a gap
  insert(p, 3);    // spliced at frozen 14, the gap's end
  remove(14, 11);  // the second <p>: own text [14, 25) joins the gap
  insert(p, 3);    // before the first splice in document order
  EXPECT_EQ(shadow, "<r>" + p + p + "</r>");
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.JoinGlobal("p", "D").ValueOrDie(),
            testutil::OracleJoin(shadow, "p", "D"));
  EXPECT_EQ(db.JoinGlobal("r", "p").ValueOrDie(),
            testutil::OracleJoin(shadow, "r", "p"));
}

TEST(LazyDatabaseTest, ApplyPlanRunsAllInsertions) {
  LazyDatabase db;
  std::vector<SegmentInsertion> plan;
  plan.push_back({"<seg><W></W></seg>", 0});
  plan.push_back({"<x/>", 8});
  ASSERT_TRUE(ApplyPlan(&db, plan).ok());
  EXPECT_EQ(db.Stats().num_segments, 2u);
  // A failing step reports its index.
  plan.clear();
  plan.push_back({"<bad>", 0});
  auto s = ApplyPlan(&db, plan);
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("step 0"), std::string::npos);
}

TEST(LazyDatabaseTest, StatsBytesPopulated) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b/></a>", 0).ok());
  auto s = db.Stats();
  EXPECT_GT(s.sb_tree_bytes, 0u);
  EXPECT_GT(s.tag_list_bytes, 0u);
  EXPECT_GT(s.element_index_bytes, 0u);
  EXPECT_EQ(s.update_log_bytes(), s.sb_tree_bytes + s.tag_list_bytes);
}

TEST(LazyDatabaseTest, LazyStaticFreezeOnQuery) {
  LazyDatabaseOptions opts;
  opts.mode = LogMode::kLazyStatic;
  LazyDatabase db(opts);
  ASSERT_TRUE(db.InsertSegment("<seg><A><D/></A></seg>", 0).ok());
  // JoinByName freezes implicitly.
  auto r = db.JoinByName("A", "D");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().pairs.size(), 1u);
  // More updates re-dirty; next query freezes again.
  ASSERT_TRUE(db.InsertSegment("<D/>", 8).ok());
  auto r2 = db.JoinByName("A", "D");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.ValueOrDie().pairs.size(), 2u);
}

TEST(LazyDatabaseTest, TagListCountsTrackRemovals) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b/><b/><b/></a>", 0).ok());
  // Remove the middle <b/> at [7,11).
  ASSERT_TRUE(db.RemoveSegment(7, 4).ok());
  const TagId b = db.tag_dict().Lookup("b").ValueOrDie();
  auto entries = db.update_log().tag_list().EntriesFor(b);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].count, 2u);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(LazyDatabaseTest, TagListEntryDiesWithLastElement) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<a><b/><c/></a>", 0).ok());
  ASSERT_TRUE(db.RemoveSegment(3, 4).ok());  // the only <b/>
  const TagId b = db.tag_dict().Lookup("b").ValueOrDie();
  EXPECT_TRUE(db.update_log().tag_list().EntriesFor(b).empty());
  EXPECT_TRUE(db.CheckInvariants().ok());
}

}  // namespace
}  // namespace lazyxml
