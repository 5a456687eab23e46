// PathSummary tests: the DataGuide data structure itself (structure,
// accounting, join pruning), then the property the whole design rests
// on — the facade's incrementally maintained summary stays equal (by
// CanonicalLines) to a fresh full-traversal rebuild after every mixed
// insert / remove / batch / collapse / snapshot-round-trip sequence.

#include "core/path_summary.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/lazy_database.h"
#include "core/snapshot.h"
#include "tests/testutil.h"
#include "xml/parser.h"
#include "xml/tag_dict.h"

namespace lazyxml {
namespace {

TEST(PathSummaryTest, ExtendFindAndCounts) {
  PathSummary s;
  EXPECT_EQ(s.num_nodes(), 1u);  // the synthetic root
  EXPECT_EQ(s.Find(PathSummary::kRootNode, 1), PathSummary::kNoNode);

  const uint32_t a = s.Extend(PathSummary::kRootNode, /*tid=*/1);
  const uint32_t ab = s.Extend(a, /*tid=*/2);
  const uint32_t ab2 = s.Extend(a, /*tid=*/2);
  EXPECT_EQ(ab, ab2) << "Extend must be idempotent per (node, tag)";
  EXPECT_EQ(s.num_nodes(), 3u);
  EXPECT_EQ(s.Find(PathSummary::kRootNode, 1), a);
  EXPECT_EQ(s.Find(a, 2), ab);
  EXPECT_EQ(s.parent(ab), a);
  EXPECT_EQ(s.parent(a), PathSummary::kRootNode);
  EXPECT_EQ(s.depth(a), 1u);
  EXPECT_EQ(s.depth(ab), 2u);
  EXPECT_EQ(s.tag(ab), 2u);
  ASSERT_EQ(s.children(a).size(), 1u);
  EXPECT_EQ(s.children(a)[0], ab);

  s.AddElement(a, /*sid=*/1);
  s.AddElement(ab, /*sid=*/1);
  s.AddElement(ab, /*sid=*/2);
  EXPECT_EQ(s.count(a), 1u);
  EXPECT_EQ(s.count(ab), 2u);
  EXPECT_EQ(s.TagCount(1), 1u);
  EXPECT_EQ(s.TagCount(2), 2u);
  EXPECT_EQ(s.TagCount(99), 0u);
  EXPECT_EQ(s.total_count(), 3u);
  ASSERT_EQ(s.seg_counts(ab).size(), 2u);
  EXPECT_EQ(s.seg_counts(ab).at(1), 1u);
  EXPECT_EQ(s.seg_counts(ab).at(2), 1u);

  ASSERT_EQ(s.Postings(2).size(), 1u);
  EXPECT_EQ(s.Postings(2)[0], ab);
  EXPECT_TRUE(s.Postings(99).empty());
  EXPECT_GT(s.MemoryBytes(), 0u);
}

TEST(PathSummaryTest, RemoveElementUnderflowIsAnError) {
  PathSummary s;
  const uint32_t a = s.Extend(PathSummary::kRootNode, 1);
  s.AddElement(a, /*sid=*/3);
  EXPECT_TRUE(s.RemoveElement(a, 3).ok());
  // Nothing left on (a, sid 3): a second removal is the divergence the
  // I-SUMMARY scrubber would flag, surfaced as an internal error.
  EXPECT_FALSE(s.RemoveElement(a, 3).ok());
  EXPECT_FALSE(s.RemoveElement(a, 7).ok());
}

TEST(PathSummaryTest, RemoveSegmentAllDropsOnlyThatSegment) {
  PathSummary s;
  const uint32_t a = s.Extend(PathSummary::kRootNode, 1);
  const uint32_t b = s.Extend(a, 2);
  s.AddElement(a, 1);
  s.AddElement(a, 2);
  s.AddElement(b, 2);
  s.SetSegmentContext(2, a);
  EXPECT_EQ(s.SegmentContext(2), a);

  s.RemoveSegmentAll(2);
  s.DropSegmentContext(2);
  EXPECT_EQ(s.count(a), 1u);
  EXPECT_EQ(s.count(b), 0u);
  EXPECT_EQ(s.total_count(), 1u);
  EXPECT_EQ(s.SegmentContext(2), PathSummary::kNoNode);
  EXPECT_TRUE(s.seg_counts(a).count(2) == 0);
}

TEST(PathSummaryTest, ComputeJoinPruneDistinguishesAxesAndProvesEmpty) {
  // Paths: /A (sid 1), /A/B (sid 1), /A/B/D (sid 2), /D (sid 3).
  PathSummary s;
  const uint32_t a = s.Extend(PathSummary::kRootNode, /*A=*/1);
  const uint32_t ab = s.Extend(a, /*B=*/2);
  const uint32_t abd = s.Extend(ab, /*D=*/3);
  const uint32_t d = s.Extend(PathSummary::kRootNode, 3);
  s.AddElement(a, 1);
  s.AddElement(ab, 1);
  s.AddElement(abd, 2);
  s.AddElement(abd, 2);
  s.AddElement(d, 3);

  // A//D: only the /A/B/D descendants qualify; ancestors only from sid 1.
  JoinPrune anc_desc = s.ComputeJoinPrune(1, 3, /*parent_child=*/false);
  EXPECT_TRUE(anc_desc.usable);
  EXPECT_FALSE(anc_desc.provably_empty);
  EXPECT_EQ(anc_desc.qualifying_descendants, 2u);
  EXPECT_TRUE(anc_desc.ancestor_sids.count(1));
  EXPECT_TRUE(anc_desc.descendant_sids.count(2));
  EXPECT_FALSE(anc_desc.descendant_sids.count(3))
      << "/D has no A ancestor and must be pruned";

  // A/D: the only D path hangs off B, not directly off A — empty.
  JoinPrune parent_child = s.ComputeJoinPrune(1, 3, /*parent_child=*/true);
  EXPECT_TRUE(parent_child.usable);
  EXPECT_TRUE(parent_child.provably_empty);
  EXPECT_EQ(parent_child.qualifying_descendants, 0u);

  // B/D is a real parent-child edge.
  JoinPrune bd = s.ComputeJoinPrune(2, 3, /*parent_child=*/true);
  EXPECT_FALSE(bd.provably_empty);
  EXPECT_EQ(bd.qualifying_descendants, 2u);

  // D//A: no A below any D — provably empty.
  JoinPrune upside_down = s.ComputeJoinPrune(3, 1, /*parent_child=*/false);
  EXPECT_TRUE(upside_down.provably_empty);

  // Unknown tags prune to empty without claiming the impossible.
  JoinPrune unknown = s.ComputeJoinPrune(42, 3, false);
  EXPECT_TRUE(unknown.usable);
  EXPECT_TRUE(unknown.provably_empty);
}

TEST(PathSummaryTest, CanonicalLinesSortedAndExcludeZeroCounts) {
  PathSummary s;
  const uint32_t b = s.Extend(PathSummary::kRootNode, 2);
  const uint32_t a = s.Extend(PathSummary::kRootNode, 1);
  s.AddElement(b, 1);
  s.AddElement(a, 1);
  s.AddElement(a, 1);
  const uint32_t dead = s.Extend(a, 5);
  (void)dead;  // never counted: a path that never hosted an element

  const std::vector<std::string> lines = s.CanonicalLines();
  ASSERT_EQ(lines.size(), 2u) << "zero-count nodes must not appear";
  EXPECT_LT(lines[0], lines[1]) << "lines must come out sorted";

  // A freshly built summary with the same live content but different
  // creation order yields identical lines.
  PathSummary t;
  const uint32_t ta = t.Extend(PathSummary::kRootNode, 1);
  const uint32_t tb = t.Extend(PathSummary::kRootNode, 2);
  t.AddElement(ta, 1);
  t.AddElement(ta, 1);
  t.AddElement(tb, 1);
  EXPECT_EQ(t.CanonicalLines(), lines);
}

// ---------------------------------------------------------------------------
// Facade maintenance property test.

constexpr const char* kTags[] = {"A", "D", "m", "n"};

std::string RandomFragment(Random* rng, int depth = 0) {
  const char* tag = kTags[rng->Uniform(4)];
  std::string out = std::string("<") + tag + ">";
  const int children = depth >= 3 ? 0 : static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < children; ++i) out += RandomFragment(rng, depth + 1);
  if (children == 0 && rng->Bernoulli(0.5)) out += "text";
  out += std::string("</") + tag + ">";
  return out;
}

/// A splice-safe random position in `shadow` (element boundary or just
/// inside an open tag), like the random-ops integration suite uses.
uint64_t RandomSplicePoint(const std::string& shadow, Random* rng) {
  TagDict dict;
  auto parsed = ParseFragment(shadow, &dict).ValueOrDie();
  const auto& records = parsed.records;
  if (records.empty()) return 0;
  const ElementRecord& around = records[rng->Uniform(records.size())];
  switch (rng->Uniform(3)) {
    case 0:
      return around.start;
    case 1:
      return shadow.find('>', around.start) + 1;
    default:
      return around.end;
  }
}

/// The maintained summary must be fresh and line-for-line equal to a
/// fresh full-traversal rebuild.
void ExpectSummaryMatchesRebuild(LazyDatabase* db, const std::string& what) {
  const PathSummary* live = db->path_summary();
  ASSERT_NE(live, nullptr) << what << ": maintenance lost the summary";
  auto fresh =
      LazyDatabase::BuildPathSummary(db->update_log(), db->element_index());
  ASSERT_TRUE(fresh.ok()) << what << ": " << fresh.status().ToString();
  EXPECT_EQ(live->CanonicalLines(), fresh.ValueOrDie()->CanonicalLines())
      << what;
  EXPECT_EQ(live->total_count(), fresh.ValueOrDie()->total_count()) << what;
}

struct SummaryStreamParam {
  uint64_t seed;
  LogMode mode;
};

class PathSummaryMaintenanceTest
    : public ::testing::TestWithParam<SummaryStreamParam> {};

TEST_P(PathSummaryMaintenanceTest, IncrementalEqualsRebuildUnderMixedOps) {
  const SummaryStreamParam param = GetParam();
  Random rng(param.seed);
  LazyDatabaseOptions opts;
  opts.mode = param.mode;
  opts.query.use_path_summary = true;
  LazyDatabase db(opts);
  std::string shadow;
  db.Freeze();  // builds the (empty) summary; updates maintain it from here
  ASSERT_NE(db.path_summary(), nullptr);

  for (int op = 0; op < 60; ++op) {
    TagDict dict;
    auto parsed = ParseFragment(shadow, &dict).ValueOrDie();
    const auto& records = parsed.records;
    const uint64_t pick = rng.Uniform(10);
    if (pick < 2 && !records.empty()) {
      // Single removal of a whole element.
      const ElementRecord& victim = records[rng.Uniform(records.size())];
      ASSERT_TRUE(
          db.RemoveSegment(victim.start, victim.end - victim.start).ok())
          << shadow;
      testutil::SpliceRemove(&shadow, victim.start,
                             victim.end - victim.start);
    } else if (pick < 5) {
      // Single insertion.
      const uint64_t gp = RandomSplicePoint(shadow, &rng);
      const std::string frag = RandomFragment(&rng);
      ASSERT_TRUE(db.InsertSegment(frag, gp).ok()) << shadow;
      testutil::SpliceInsert(&shadow, frag, gp);
    } else if (pick < 8) {
      // Batch of 1-3 inserts (positions computed against the evolving
      // shadow, exactly the sequential-equivalence ApplyBatch promises).
      UpdateBatch batch;
      const int n = 1 + static_cast<int>(rng.Uniform(3));
      for (int i = 0; i < n; ++i) {
        const uint64_t gp = RandomSplicePoint(shadow, &rng);
        const std::string frag = RandomFragment(&rng);
        batch.Insert(frag, gp);
        testutil::SpliceInsert(&shadow, frag, gp);
      }
      ASSERT_TRUE(db.ApplyBatch(batch.ops()).ok()) << shadow;
    } else if (pick == 8) {
      // Collapse a random root-child subtree (compaction).
      const auto& children = db.update_log().root()->children;
      if (!children.empty()) {
        ASSERT_TRUE(
            db.CollapseSubtree(children[rng.Uniform(children.size())]->sid)
                .ok());
      }
    } else {
      // Full compaction.
      ASSERT_TRUE(db.CompactAll().ok());
    }
    ExpectSummaryMatchesRebuild(&db, "op " + std::to_string(op));
    if (op % 10 == 9) {
      // The deep scrubber includes the I-SUMMARY comparison.
      ASSERT_TRUE(db.CheckInvariants().ok());
    }
  }

  // Snapshot round trip: the restored database rebuilds a summary equal
  // to the live one. Serialization needs a serviceable log (LS mode
  // leaves it unfrozen after updates), and Freeze must keep the
  // summary fresh through the sort.
  db.Freeze();
  ExpectSummaryMatchesRebuild(&db, "post-freeze");
  auto blob = SerializeDatabase(db);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto restored = DeserializeDatabase(blob.ValueOrDie(), opts);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectSummaryMatchesRebuild(restored.ValueOrDie().get(), "restored");
  ASSERT_NE(db.path_summary(), nullptr);
  EXPECT_EQ(restored.ValueOrDie()->path_summary()->CanonicalLines(),
            db.path_summary()->CanonicalLines());
}

INSTANTIATE_TEST_SUITE_P(
    Streams, PathSummaryMaintenanceTest,
    ::testing::Values(SummaryStreamParam{7, LogMode::kLazyDynamic},
                      SummaryStreamParam{19, LogMode::kLazyDynamic},
                      SummaryStreamParam{31, LogMode::kLazyStatic}),
    [](const ::testing::TestParamInfo<SummaryStreamParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             LogModeName(info.param.mode);
    });

TEST(PathSummaryFacadeTest, MutableBypassStalesSummaryAndFreezeRebuilds) {
  LazyDatabaseOptions opts;
  opts.query.use_path_summary = true;
  LazyDatabase db(opts);
  ASSERT_TRUE(db.InsertSegment("<A><D/></A>", 0).ok());
  db.Freeze();
  ASSERT_NE(db.path_summary(), nullptr);

  // Going around the facade bumps the epoch without maintenance: the
  // summary must silently disappear, never be consulted stale.
  (void)db.mutable_update_log();
  EXPECT_EQ(db.path_summary(), nullptr);

  db.Freeze();  // rebuild
  ASSERT_NE(db.path_summary(), nullptr);
  ExpectSummaryMatchesRebuild(&db, "after rebuild");
}

TEST(PathSummaryFacadeTest, DisabledOptionMeansNoSummary) {
  LazyDatabaseOptions opts;
  opts.query.use_path_summary = false;
  LazyDatabase db(opts);
  ASSERT_TRUE(db.InsertSegment("<A><D/></A>", 0).ok());
  db.Freeze();
  EXPECT_EQ(db.path_summary(), nullptr);
  // Joins still work, just unpruned.
  auto r = db.JoinGlobal("A", "D");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().size(), 1u);
}

TEST(PathSummaryFacadeTest, ProvablyEmptyJoinTouchesNoTagList) {
  LazyDatabaseOptions opts;
  opts.query.use_path_summary = true;
  LazyDatabase db(opts);
  // D exists, A exists, but no D is ever inside an A.
  ASSERT_TRUE(db.InsertSegment("<r><A><B/></A><D/></r>", 0).ok());
  db.Freeze();
  ASSERT_NE(db.path_summary(), nullptr);

  auto r = db.JoinByName("A", "D");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().pairs.empty());
  // The summary answered before the kernel scanned anything.
  EXPECT_EQ(r.ValueOrDie().stats.elements_fetched, 0u);

  // Same answer with pruning off — just computed the expensive way.
  QueryOptions q = db.query_options();
  q.use_path_summary = false;
  db.SetQueryOptions(q);
  auto slow = db.JoinByName("A", "D");
  ASSERT_TRUE(slow.ok());
  EXPECT_TRUE(slow.ValueOrDie().pairs.empty());
}

}  // namespace
}  // namespace lazyxml
