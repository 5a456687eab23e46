#include "core/lazy_join.h"

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "core/lazy_database.h"
#include "tests/testutil.h"
#include "xmlgen/join_workload.h"

namespace lazyxml {
namespace {

// Builds a database from explicit (text, gp) insertions, mirroring them
// into a shadow text document; joins are then checked against the oracle.
class Fixture {
 public:
  explicit Fixture(LogMode mode = LogMode::kLazyDynamic) {
    LazyDatabaseOptions opts;
    opts.mode = mode;
    db_ = std::make_unique<LazyDatabase>(opts);
  }

  void Insert(std::string_view text, uint64_t gp) {
    auto r = db_->InsertSegment(text, gp);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    testutil::SpliceInsert(&shadow_, text, gp);
    ASSERT_TRUE(db_->CheckInvariants().ok());
  }

  void ExpectJoinMatchesOracle(std::string_view anc, std::string_view desc,
                               bool parent_child = false) {
    LazyJoinOptions opts;
    opts.parent_child = parent_child;
    auto got = db_->JoinGlobal(anc, desc, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto want = testutil::OracleJoin(shadow_, anc, desc, parent_child);
    EXPECT_EQ(got.ValueOrDie(), want);
  }

  LazyDatabase& db() { return *db_; }
  const std::string& shadow() const { return shadow_; }

 private:
  std::unique_ptr<LazyDatabase> db_;
  std::string shadow_;
};

TEST(LazyJoinTest, EmptyDatabase) {
  LazyDatabase db;
  auto r = db.JoinByName("A", "D");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().pairs.empty());
}

TEST(LazyJoinTest, UnknownTagsYieldEmpty) {
  Fixture f;
  f.Insert("<seg><A><D/></A></seg>", 0);
  auto r = f.db().JoinByName("A", "nope");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().pairs.empty());
}

TEST(LazyJoinTest, InSegmentJoinSingleSegment) {
  Fixture f;
  f.Insert("<seg><A><D/><D/></A><D/><A></A></seg>", 0);
  auto r = f.db().JoinByName("A", "D");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().stats.in_segment_pairs, 2u);
  EXPECT_EQ(r.ValueOrDie().stats.cross_segment_pairs, 0u);
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, CrossSegmentJoinViaWrappedHole) {
  Fixture f;
  // Parent segment wraps the child hole with <A>; child carries two D's.
  //          0123456789...
  f.Insert("<seg><A></A></seg>", 0);
  f.Insert("<seg><D/><D/></seg>", 8);  // inside the <A> element
  auto r = f.db().JoinByName("A", "D");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().stats.cross_segment_pairs, 2u);
  EXPECT_EQ(r.ValueOrDie().stats.in_segment_pairs, 0u);
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, UnwrappedHoleProducesNoCrossJoins) {
  Fixture f;
  f.Insert("<seg><A></A><W></W></seg>", 0);
  f.Insert("<seg><D/></seg>", 15);  // inside <W>, not inside <A>
  auto r = f.db().JoinByName("A", "D");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().pairs.empty());
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, Proposition3BoundaryElementBeforeHole) {
  Fixture f;
  // <A> ends exactly at the hole: a.end == P, must NOT join.
  f.Insert("<seg><A></A><W></W></seg>", 0);
  const uint64_t hole = 15;  // inside <W>
  f.Insert("<seg><D/></seg>", hole);
  // Also an <A> that starts exactly at the hole in a second parent elem:
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, GrandparentCrossJoins) {
  Fixture f;
  // seg1 wraps hole of seg2 in <A>; seg2 wraps hole of seg3 in <A> too;
  // seg3 has the D's. Both A's must join both D's.
  f.Insert("<seg><A></A></seg>", 0);
  f.Insert("<seg><A></A></seg>", 8);
  f.Insert("<seg><D/><D/></seg>", 16);
  auto r = f.db().JoinByName("A", "D");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().stats.cross_segment_pairs, 4u);
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, MixedInAndCrossSegment) {
  Fixture f;
  f.Insert("<seg><A><D/></A><A></A></seg>", 0);
  // hole inside the second <A> element: "<seg><A><D/></A><A>" = 19 chars
  f.Insert("<seg><D/><A><D/></A></seg>", 19);
  auto r = f.db().JoinByName("A", "D");
  ASSERT_TRUE(r.ok());
  // in-seg: (A1,D1) in seg1 + (A3,D3) in seg2 = 2
  // cross: A2 wraps seg2 which has D2 and D3 = 2
  EXPECT_EQ(r.ValueOrDie().stats.in_segment_pairs, 2u);
  EXPECT_EQ(r.ValueOrDie().stats.cross_segment_pairs, 2u);
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, SiblingSegmentsDoNotJoin) {
  Fixture f;
  f.Insert("<seg><W></W><W></W></seg>", 0);
  f.Insert("<seg><A></A></seg>", 8);     // inside first W
  f.Insert("<seg><D/></seg>", 8 + 18 + 7);  // inside second W
  auto r = f.db().JoinByName("A", "D");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().pairs.empty());
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, ParentChildVariant) {
  Fixture f;
  // A > D (direct) and A >> D (via another element).
  f.Insert("<seg><A><D/><B><D/></B></A></seg>", 0);
  auto all = f.db().JoinByName("A", "D").ValueOrDie();
  EXPECT_EQ(all.pairs.size(), 2u);
  LazyJoinOptions pc;
  pc.parent_child = true;
  auto direct = f.db().JoinByName("A", "D", pc).ValueOrDie();
  EXPECT_EQ(direct.pairs.size(), 1u);
  f.ExpectJoinMatchesOracle("A", "D", /*parent_child=*/true);
}

TEST(LazyJoinTest, ParentChildAcrossSegments) {
  Fixture f;
  // A in the parent segment directly wraps the hole and the child
  // segment's root element *is* a D — level difference exactly one. The
  // nested D (inside <B>) is a descendant but not a child.
  f.Insert("<seg><A></A></seg>", 0);
  f.Insert("<D><B><D/></B></D>", 8);
  f.ExpectJoinMatchesOracle("A", "D", /*parent_child=*/false);
  f.ExpectJoinMatchesOracle("A", "D", /*parent_child=*/true);
  LazyJoinOptions pc;
  pc.parent_child = true;
  auto r = f.db().JoinByName("A", "D", pc).ValueOrDie();
  EXPECT_EQ(r.pairs.size(), 1u);  // only the child segment's root D
}

TEST(LazyJoinTest, ParentChildFromGrandparentSegmentWhitespaceEdge) {
  // The Prop. 3(1) edge case the paper glosses over: segment T splices
  // into the leading whitespace of segment S (outside S's root element),
  // so an element of S's *parent* segment is the direct parent of T's
  // root element even though that parent segment does not directly
  // contain T.
  Fixture f;
  f.Insert("<seg><A></A></seg>", 0);  // seg1: A = [5,12) wraps the hole
  f.Insert(" <B/>", 8);               // seg2: leading whitespace at local 0
  f.Insert("<D/>", 9);                // seg3 in seg2's whitespace
  f.ExpectJoinMatchesOracle("A", "D", /*parent_child=*/false);
  f.ExpectJoinMatchesOracle("A", "D", /*parent_child=*/true);
  LazyJoinOptions pc;
  pc.parent_child = true;
  auto r = f.db().JoinByName("A", "D", pc).ValueOrDie();
  EXPECT_EQ(r.pairs.size(), 1u);  // A (level 2) is D's (level 3) parent
}

TEST(LazyJoinTest, OptimizedAndUnoptimizedAgree) {
  Fixture f;
  f.Insert("<seg><A><D/></A><A></A><W></W></seg>", 0);
  f.Insert("<seg><D/><A></A></seg>", 19);
  f.Insert("<seg><D/><D/></seg>", 19 + 12);  // inside seg2's <A> element
  LazyJoinOptions opt;
  opt.optimize_stack = true;
  LazyJoinOptions unopt;
  unopt.optimize_stack = false;
  auto a = f.db().JoinGlobal("A", "D", opt).ValueOrDie();
  auto b = f.db().JoinGlobal("A", "D", unopt).ValueOrDie();
  EXPECT_EQ(a, b);
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, StatsSkipCountsSegmentsWithoutChildren) {
  Fixture f;
  // Three sibling segments with A's but no child segments, then one D
  // segment after them — they can never host cross joins.
  f.Insert("<seg><W></W><W></W><W></W><A></A></seg>", 0);
  f.Insert("<seg><A/></seg>", 8);
  f.Insert("<seg><A/></seg>", 30);  // between W2's tags post-shift
  const std::string& s = f.shadow();
  // Hole inside the <A> element of segment 1.
  const uint64_t hole = s.find("<A></A>") + 3;
  f.Insert("<seg><D/></seg>", hole);
  // The path summary would prune the childless segments before the
  // kernel ever saw them; this test targets the kernel's own skip, so
  // turn the summary off.
  QueryOptions q = f.db().query_options();
  q.use_path_summary = false;
  f.db().SetQueryOptions(q);
  auto r = f.db().JoinByName("A", "D").ValueOrDie();
  EXPECT_GT(r.stats.segments_skipped, 0u);
  f.ExpectJoinMatchesOracle("A", "D");
}

TEST(LazyJoinTest, LazyStaticModeMatchesDynamic) {
  for (LogMode mode : {LogMode::kLazyDynamic, LogMode::kLazyStatic}) {
    Fixture f(mode);
    f.Insert("<seg><A><D/></A><A></A></seg>", 0);
    f.Insert("<seg><D/></seg>", 19);
    f.ExpectJoinMatchesOracle("A", "D");
  }
}

TEST(LazyJoinTest, ResultsIdentifyElementsBySegmentAndFrozenStart) {
  Fixture f;
  f.Insert("<seg><A></A></seg>", 0);
  f.Insert("<seg><D/></seg>", 8);
  auto r = f.db().JoinByName("A", "D").ValueOrDie();
  ASSERT_EQ(r.pairs.size(), 1u);
  EXPECT_EQ(r.pairs[0].ancestor_sid, 1u);
  EXPECT_EQ(r.pairs[0].ancestor_start, 5u);   // <A> at frozen 5 in seg1
  EXPECT_EQ(r.pairs[0].descendant_sid, 2u);
  EXPECT_EQ(r.pairs[0].descendant_start, 5u);  // <D/> at frozen 5 in seg2
}

// ---------------------------------------------------------------------------
// Pair order (documented on LazyJoinResult in core/lazy_join.h; the query
// evaluator's normalizing merge relies on it for speed).

uint32_t SegmentDepth(const UpdateLog& log, SegmentId sid) {
  uint32_t depth = 0;
  for (const SegmentNode* n = log.NodeOf(sid); n->parent != nullptr;
       n = n->parent) {
    ++depth;
  }
  return depth;
}

/// Checks `pairs` against the documented order; returns a description of
/// the first violation, or "" when the order holds.
std::string PairOrderViolation(const LazyDatabase& db, std::string_view desc,
                               const std::vector<LazyJoinPair>& pairs) {
  const UpdateLog& log = db.update_log();
  std::map<SegmentId, size_t> list_pos;
  const TagId dtid = db.tag_dict().Lookup(desc).ValueOrDie();
  for (const TagListEntry& e : log.tag_list().EntriesFor(dtid)) {
    list_pos.emplace(e.sid(), list_pos.size());
  }
  std::map<SegmentId, bool> seen_group;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const LazyJoinPair& p = pairs[i];
    const std::string at = " at pair #" + std::to_string(i);
    if (i == 0 || pairs[i - 1].descendant_sid != p.descendant_sid) {
      // 1. A new group: never seen before, and later in tag-list order.
      if (seen_group[p.descendant_sid]) return "group split" + at;
      seen_group[p.descendant_sid] = true;
      if (i > 0 && list_pos.at(pairs[i - 1].descendant_sid) >=
                       list_pos.at(p.descendant_sid)) {
        return "groups out of tag-list order" + at;
      }
      continue;
    }
    const LazyJoinPair& q = pairs[i - 1];
    const bool q_cross = q.ancestor_sid != q.descendant_sid;
    const bool p_cross = p.ancestor_sid != p.descendant_sid;
    if (!q_cross && p_cross) return "cross pair after in-segment pair" + at;
    if (q_cross && p_cross) {
      // 2. Outermost ancestor segment first, then (anc, desc) ascending.
      if (q.ancestor_sid != p.ancestor_sid) {
        if (SegmentDepth(log, q.ancestor_sid) >=
            SegmentDepth(log, p.ancestor_sid)) {
          return "ancestor segments not outermost first" + at;
        }
      } else if (std::make_pair(q.ancestor_start, q.descendant_start) >=
                 std::make_pair(p.ancestor_start, p.descendant_start)) {
        return "cross pairs not ascending" + at;
      }
    } else if (!q_cross && !p_cross &&
               std::make_pair(q.descendant_start, q.ancestor_start) >=
                   std::make_pair(p.descendant_start, p.ancestor_start)) {
      // 3. Stack-Tree-Desc: (desc, anc) ascending.
      return "in-segment pairs not in Stack-Tree-Desc order" + at;
    }
  }
  return "";
}

TEST(LazyJoinPairOrderTest, AllExecutorsEmitTheDocumentedOrder) {
  JoinWorkloadConfig config;
  config.num_segments = 40;
  config.shape = ErTreeShape::kBalanced;
  config.total_joins = 3000;
  config.cross_fraction = 0.5;
  config.num_a_elements = 4000;
  config.num_d_elements = 4000;
  auto plan = BuildJoinWorkload(config);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  struct Config {
    const char* name;
    QueryOptions query;
  };
  std::vector<Config> configs(2);
  configs[0].name = "serial";
  configs[0].query.use_path_summary = false;
  configs[1].name = "summary-pruned";

  struct Join {
    const char* anc;
    const char* desc;
    bool parent_child;
  };
  for (const Join& j : {Join{"A", "D", false}, Join{"A", "D", true},
                        Join{"A", "A", false}, Join{"seg", "D", false},
                        Join{"seg", "seg", false}}) {
    SCOPED_TRACE(std::string(j.anc) + (j.parent_child ? "/" : "//") + j.desc);
    std::vector<LazyJoinPair> reference;
    for (const Config& c : configs) {
      LazyDatabaseOptions opts;
      opts.query = c.query;
      LazyDatabase db(opts);
      ASSERT_TRUE(ApplyPlan(&db, plan.ValueOrDie().insertions).ok());
      // A few LD updates so the geometry is not just the chop plan's.
      ASSERT_TRUE(db.InsertSegment("<A><D/><A><D/></A></A>", 0).ok());
      db.Freeze();
      LazyJoinOptions jopts;
      jopts.parent_child = j.parent_child;
      auto r = db.JoinByName(j.anc, j.desc, jopts);
      ASSERT_TRUE(r.ok()) << c.name;
      const LazyJoinResult& res = r.ValueOrDie();
      EXPECT_EQ(PairOrderViolation(db, j.desc, res.pairs), "") << c.name;
      if (reference.empty()) {
        reference = res.pairs;
        ASSERT_FALSE(reference.empty());
      } else {
        EXPECT_TRUE(res.pairs == reference) << c.name;
      }
    }
  }
}

}  // namespace
}  // namespace lazyxml
