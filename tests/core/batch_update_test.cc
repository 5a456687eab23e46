// Batch/sequential equivalence property suite (docs/INVARIANTS.md
// I-BATCH): ApplyBatch must be byte-identical in effect to applying the
// same ops one by one — same serialized snapshot, same sids, same
// next_sid, same first error — for random op mixes, every chunking,
// both log modes, and freeze points between chunks.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/lazy_database.h"
#include "core/snapshot.h"
#include "core/update_batch.h"
#include "tests/testutil.h"
#include "xml/parser.h"

namespace lazyxml {
namespace {

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

// A splice-safe global position in `shadow` (element boundaries and
// just-inside-open-tag positions).
uint64_t RandomGp(Random* rng, const std::string& shadow,
                  std::span<const ElementRecord> records) {
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

// Generates `n` ops that are all valid when applied in order (simulated
// against a shadow document). With probability `cancel_p` an op slot
// emits an exactly-cancelling insert/remove pair instead.
std::vector<UpdateOp> GenerateOps(Random* rng, size_t n, double remove_p,
                                  double cancel_p) {
  std::string shadow;
  std::vector<UpdateOp> ops;
  while (ops.size() < n) {
    TagDict dict;
    auto parsed = ParseFragment(shadow, &dict).ValueOrDie();
    const auto& records = parsed.records;
    if (rng->Bernoulli(cancel_p)) {
      const uint64_t gp = RandomGp(rng, shadow, records);
      std::string frag = RandomFragment(rng);
      const uint64_t len = frag.size();
      ops.push_back(UpdateOp::Insert(std::move(frag), gp));
      ops.push_back(UpdateOp::Remove(gp, len));
      continue;  // shadow is net unchanged
    }
    if (!records.empty() && rng->Bernoulli(remove_p)) {
      const ElementRecord& victim = records[rng->Uniform(records.size())];
      ops.push_back(UpdateOp::Remove(victim.start, victim.end - victim.start));
      testutil::SpliceRemove(&shadow, victim.start,
                             victim.end - victim.start);
    } else {
      const uint64_t gp = RandomGp(rng, shadow, records);
      std::string frag = RandomFragment(rng);
      testutil::SpliceInsert(&shadow, frag, gp);
      ops.push_back(UpdateOp::Insert(std::move(frag), gp));
    }
  }
  return ops;
}

Status ApplySequentially(LazyDatabase* db, std::span<const UpdateOp> ops) {
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      LAZYXML_RETURN_NOT_OK(db->InsertSegment(op.text, op.gp).status());
    } else {
      LAZYXML_RETURN_NOT_OK(db->RemoveSegment(op.gp, op.length));
    }
  }
  return Status::OK();
}

// The equivalence oracle: serialized snapshots are content-based (sids,
// geometry, element records, tag-list, next_sid), so equal bytes means
// equal logical state regardless of tree shapes.
void ExpectSameState(LazyDatabase* seq, LazyDatabase* batch) {
  ASSERT_TRUE(batch->CheckInvariants().ok());
  EXPECT_EQ(seq->update_log().next_sid(), batch->update_log().next_sid());
  seq->Freeze();
  batch->Freeze();
  const std::string a = SerializeDatabase(*seq).ValueOrDie();
  const std::string b = SerializeDatabase(*batch).ValueOrDie();
  EXPECT_EQ(a, b);
}

struct EquivParam {
  uint64_t seed;
  LogMode mode;
  size_t chunk;  // ops per ApplyBatch call; 0 = the whole stream at once
  double remove_p;
  double cancel_p;
  bool freeze_between_chunks;
};

class BatchUpdateEquivalenceTest
    : public ::testing::TestWithParam<EquivParam> {};

TEST_P(BatchUpdateEquivalenceTest, BatchMatchesSequential) {
  const EquivParam p = GetParam();
  Random rng(p.seed);
  const std::vector<UpdateOp> ops =
      GenerateOps(&rng, 60, p.remove_p, p.cancel_p);

  LazyDatabaseOptions opts;
  opts.mode = p.mode;
  LazyDatabase seq(opts);
  LazyDatabase batch(opts);

  const size_t chunk = p.chunk == 0 ? ops.size() : p.chunk;
  for (size_t at = 0; at < ops.size(); at += chunk) {
    const size_t len = std::min(chunk, ops.size() - at);
    const std::span<const UpdateOp> slice(ops.data() + at, len);
    ASSERT_TRUE(ApplySequentially(&seq, slice).ok());
    auto stats = batch.ApplyBatch(slice);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats.ValueOrDie().applied, len);
    if (p.freeze_between_chunks) {
      seq.Freeze();
      batch.Freeze();
    }
  }
  ExpectSameState(&seq, &batch);
}

INSTANTIATE_TEST_SUITE_P(
    Streams, BatchUpdateEquivalenceTest,
    ::testing::Values(
        EquivParam{1, LogMode::kLazyDynamic, 0, 0.25, 0.15, false},
        EquivParam{2, LogMode::kLazyDynamic, 1, 0.25, 0.15, false},
        EquivParam{3, LogMode::kLazyDynamic, 7, 0.40, 0.25, false},
        EquivParam{4, LogMode::kLazyDynamic, 16, 0.10, 0.00, false},
        EquivParam{5, LogMode::kLazyStatic, 0, 0.25, 0.15, false},
        EquivParam{6, LogMode::kLazyStatic, 7, 0.40, 0.25, false},
        EquivParam{7, LogMode::kLazyStatic, 5, 0.25, 0.15, true},
        EquivParam{8, LogMode::kLazyDynamic, 3, 0.50, 0.30, false}),
    [](const ::testing::TestParamInfo<EquivParam>& info) {
      const EquivParam& p = info.param;
      return "seed" + std::to_string(p.seed) + "_" + LogModeName(p.mode) +
             "_chunk" + std::to_string(p.chunk) +
             (p.freeze_between_chunks ? "_frozen" : "");
    });

TEST(BatchUpdateTest, EmptyBatchIsANoOp) {
  LazyDatabase db;
  const uint64_t epoch = db.mutation_epoch();
  auto stats = db.ApplyBatch({});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueOrDie().ops, 0u);
  EXPECT_EQ(db.mutation_epoch(), epoch);  // no spurious cache invalidation
}

TEST(BatchUpdateTest, CancelledPairBurnsTheSid) {
  // Sequentially, <A/> would take sid 1 and <D/> sid 2; the batch path
  // short-circuits the cancelled pair but must hand <D/> the same sid 2.
  UpdateBatch b;
  b.Insert("<A/>", 0).Remove(0, 4).Insert("<D/>", 0);
  LazyDatabase db;
  auto stats_r = db.ApplyBatch(b.ops());
  ASSERT_TRUE(stats_r.ok());
  const BatchStats& stats = stats_r.ValueOrDie();
  EXPECT_EQ(stats.cancelled_pairs, 1u);
  EXPECT_EQ(stats.sids, (std::vector<SegmentId>{1, 0, 2}));
  EXPECT_EQ(db.update_log().next_sid(), 3u);
  EXPECT_EQ(db.Stats().num_segments, 1u);
  // The cancelled fragment's tag is still interned, as it would be
  // sequentially (interning happens at parse time).
  EXPECT_TRUE(db.tag_dict().Lookup("A").ok());

  LazyDatabase seq;
  ASSERT_TRUE(ApplySequentially(&seq, b.ops()).ok());
  ExpectSameState(&seq, &db);
}

TEST(BatchUpdateTest, PairAcrossBatchBoundaryStillMatches) {
  // The same pair split over two ApplyBatch calls cannot cancel (the
  // ops are not adjacent within one batch) — the slow path must agree.
  LazyDatabase split;
  UpdateBatch first, second;
  first.Insert("<A><D/></A>", 0);
  second.Remove(0, 11).Insert("<m/>", 0);
  ASSERT_TRUE(split.ApplyBatch(first.ops()).ok());
  ASSERT_TRUE(split.ApplyBatch(second.ops()).ok());

  LazyDatabase fused;
  UpdateBatch all;
  all.Insert("<A><D/></A>", 0).Remove(0, 11).Insert("<m/>", 0);
  auto stats = fused.ApplyBatch(all.ops());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.ValueOrDie().cancelled_pairs, 1u);
  ExpectSameState(&split, &fused);
}

TEST(BatchUpdateTest, MalformedCancelledInsertFailsLikeSequential) {
  // The cancelled insert's text is never spliced, but sequential
  // application would reject it at parse time — so must the batch.
  UpdateBatch b;
  b.Insert("<ok/>", 0).Insert("<bad>", 5).Remove(5, 5);
  LazyDatabase db;
  auto r = db.ApplyBatch(b.ops());
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_NE(r.status().message().find("step 1"), std::string::npos);
  // Prefix semantics: op 0 stayed applied.
  EXPECT_EQ(db.Stats().num_segments, 1u);
  ASSERT_TRUE(db.CheckInvariants().ok());
}

TEST(BatchUpdateTest, ErrorLeavesTheAppliedPrefix) {
  UpdateBatch b;
  b.Insert("<A/>", 0).Insert("<D/>", 4).Remove(100, 5).Insert("<m/>", 0);
  LazyDatabase db;
  auto r = db.ApplyBatch(b.ops());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("step 2"), std::string::npos);

  LazyDatabase seq;
  ASSERT_TRUE(seq.InsertSegment("<A/>", 0).ok());
  ASSERT_TRUE(seq.InsertSegment("<D/>", 4).ok());
  EXPECT_FALSE(seq.RemoveSegment(100, 5).ok());
  ExpectSameState(&seq, &db);
}

// Regression for the prefix-exactness of BatchStats on failure: the
// rejected op must contribute nothing — no applied count, no cancelled
// pair, no index-insert counts, a zero sids slot. Verified by comparing
// against the stats of successfully applying the valid prefix alone,
// with the failure injected at EVERY op position.
TEST(BatchUpdateTest, FailedBatchStatsCoverExactlyTheAppliedPrefix) {
  Random rng(77);
  const std::vector<UpdateOp> ops = GenerateOps(&rng, 12, 0.3, 0.3);
  for (size_t k = 0; k <= ops.size(); ++k) {
    // Two failure shapes: a remove that fails the bounds check, and an
    // insert that fails at parse. Neither can be planned into a
    // cancelled pair, so planning of the prefix is unchanged; the bad
    // insert is an unmatched end tag so the failed parse interns no tag
    // (state must equal the prefix-only oracle byte for byte).
    for (int shape = 0; shape < 2; ++shape) {
      std::vector<UpdateOp> failing(ops.begin(), ops.begin() + k);
      failing.push_back(shape == 0
                            ? UpdateOp::Remove(uint64_t{1} << 60, 5)
                            : UpdateOp::Insert("</x>", 0));
      LazyDatabase db;
      BatchStats stats;
      Status s = db.ApplyBatch(failing, &stats);
      ASSERT_FALSE(s.ok()) << "k=" << k << " shape=" << shape;
      EXPECT_NE(s.message().find("step " + std::to_string(k)),
                std::string::npos)
          << s.ToString();

      LazyDatabase oracle;
      BatchStats expect;
      ASSERT_TRUE(
          oracle.ApplyBatch(std::span(ops.data(), k), &expect).ok());
      EXPECT_EQ(stats.ops, k + 1);
      EXPECT_EQ(stats.applied, expect.applied) << "k=" << k;
      EXPECT_EQ(stats.applied, k);
      EXPECT_EQ(stats.cancelled_pairs, expect.cancelled_pairs) << "k=" << k;
      EXPECT_EQ(stats.index_flushes, expect.index_flushes) << "k=" << k;
      EXPECT_EQ(stats.index_records, expect.index_records) << "k=" << k;
      ASSERT_EQ(stats.sids.size(), k + 1);
      EXPECT_EQ(stats.sids.back(), 0u);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(stats.sids[i], expect.sids[i]) << "k=" << k << " i=" << i;
      }
      // The prefix itself stayed applied and consistent.
      ASSERT_TRUE(db.CheckInvariants().ok());
      ExpectSameState(&oracle, &db);
    }
  }
}

// Capture hook that fails on its nth per-op callback — the only public
// way to reject an op AFTER its in-memory work (and its deferred index
// records) already happened, which is exactly the path where counters
// used to leak counts from the rejected op.
class FailAtNthOpCapture : public UpdateCapture {
 public:
  explicit FailAtNthOpCapture(int fail_at) : fail_at_(fail_at) {}
  Status OnInsertSegment(SegmentId, std::string_view, uint64_t) override {
    return Next();
  }
  Status OnRemoveRange(uint64_t, uint64_t) override { return Next(); }
  Status OnCollapseSubtree(SegmentId, SegmentId) override { return Next(); }

 private:
  Status Next() {
    if (calls_++ == fail_at_) return Status::IOError("injected capture fail");
    return Status::OK();
  }
  int fail_at_;
  int calls_ = 0;
};

TEST(BatchUpdateTest, FailedCaptureStatsCoverExactlyTheAppliedPrefix) {
  // One capture callback per op (cancelled pairs included), so failing
  // the nth callback rejects exactly op n — the only failure point
  // AFTER the op's in-memory work (and deferred index records) already
  // happened. The mix covers every per-op shape: plain inserts, a plain
  // remove, and a cancelled pair. Expectations are hand-computed per
  // fail position (a prefix-batch oracle would diverge at fail_op=4:
  // the full batch plans ops 3+4 as a cancelled pair, the prefix alone
  // applies op 3 structurally).
  std::vector<UpdateOp> ops;
  ops.push_back(UpdateOp::Insert("<A/>", 0));  // -> "<A/>"
  ops.push_back(UpdateOp::Insert("<D/>", 4));  // -> "<A/><D/>"
  ops.push_back(UpdateOp::Remove(0, 4));       // plain remove (no pair)
  ops.push_back(UpdateOp::Insert("<m/>", 0));  // pair 1: short-circuited
  ops.push_back(UpdateOp::Remove(0, 4));
  ops.push_back(UpdateOp::Insert("<n/>", 0));  // pair 2
  ops.push_back(UpdateOp::Remove(0, 4));
  struct Want {
    size_t applied;
    size_t cancelled_pairs;
    size_t index_flushes;
    size_t index_records;
    std::vector<SegmentId> sids;
    SegmentId next_sid;
  };
  const Want wants[] = {
      // fail_op=0: the rejected insert's record was flushed (matching
      // sequential state) but counted nowhere; its sid 1 is burned.
      {0, 0, 0, 0, {0, 0, 0, 0, 0, 0, 0}, 2},
      // fail_op=1: the end flush held op 0's record (counted) plus the
      // rejected op's record (flushed, not counted).
      {1, 0, 1, 1, {1, 0, 0, 0, 0, 0, 0}, 3},
      // fail_op=2: the pre-removal flush counted both prefix records;
      // the remove applied in memory, then capture rejected it.
      {2, 0, 1, 2, {1, 2, 0, 0, 0, 0, 0}, 3},
      // fail_op=3: pair 1's insert burned sid 3, then capture rejected
      // it: zero sids slot, nothing else.
      {3, 0, 1, 2, {1, 2, 0, 0, 0, 0, 0}, 4},
      // fail_op=4: capture rejected pair 1's closing remove — the pair
      // must NOT be counted (this was the pre-fix bug: cancelled_pairs
      // incremented before the capture could fail).
      {4, 0, 1, 2, {1, 2, 0, 3, 0, 0, 0}, 4},
      // fail_op=5: pair 1 completed (counted); pair 2's insert rejected.
      {5, 1, 1, 2, {1, 2, 0, 3, 0, 0, 0}, 5},
      // fail_op=6: pair 2's closing remove rejected — only pair 1 counts.
      {6, 1, 1, 2, {1, 2, 0, 3, 0, 4, 0}, 5},
  };
  for (size_t fail_op = 0; fail_op < ops.size(); ++fail_op) {
    FailAtNthOpCapture capture(static_cast<int>(fail_op));
    LazyDatabase db;
    db.set_update_capture(&capture);
    BatchStats stats;
    Status s = db.ApplyBatch(ops, &stats);
    ASSERT_FALSE(s.ok()) << "fail_op=" << fail_op;
    EXPECT_NE(s.message().find("step " + std::to_string(fail_op)),
              std::string::npos)
        << s.ToString();
    const Want& want = wants[fail_op];
    EXPECT_EQ(stats.ops, ops.size());
    EXPECT_EQ(stats.applied, want.applied) << "fail_op=" << fail_op;
    EXPECT_EQ(stats.cancelled_pairs, want.cancelled_pairs)
        << "fail_op=" << fail_op;
    EXPECT_EQ(stats.index_flushes, want.index_flushes)
        << "fail_op=" << fail_op;
    EXPECT_EQ(stats.index_records, want.index_records)
        << "fail_op=" << fail_op;
    EXPECT_EQ(stats.sids, want.sids) << "fail_op=" << fail_op;
    EXPECT_EQ(db.update_log().next_sid(), want.next_sid)
        << "fail_op=" << fail_op;
    ASSERT_TRUE(db.CheckInvariants().ok());
  }
}

TEST(BatchUpdateTest, StatsOutOverloadMatchesResultOverloadOnSuccess) {
  UpdateBatch b;
  b.Insert("<A><D/></A>", 0).Insert("<m/>", 3).Remove(3, 4);
  LazyDatabase via_result;
  auto r = via_result.ApplyBatch(b.ops());
  ASSERT_TRUE(r.ok());
  LazyDatabase via_out;
  BatchStats stats;
  ASSERT_TRUE(via_out.ApplyBatch(b.ops(), &stats).ok());
  const BatchStats& want = r.ValueOrDie();
  EXPECT_EQ(stats.ops, want.ops);
  EXPECT_EQ(stats.applied, want.applied);
  EXPECT_EQ(stats.cancelled_pairs, want.cancelled_pairs);
  EXPECT_EQ(stats.index_flushes, want.index_flushes);
  EXPECT_EQ(stats.index_records, want.index_records);
  EXPECT_EQ(stats.sids, want.sids);
  // Null stats-out is allowed.
  LazyDatabase no_stats;
  ASSERT_TRUE(no_stats.ApplyBatch(b.ops(), nullptr).ok());
  ExpectSameState(&via_result, &no_stats);
}

TEST(BatchUpdateTest, ApplyPlanRoutesThroughTheBatchPath) {
  // Plans are pure-insert batches; a fresh database takes the bulk-load
  // flush. The result must match per-op application.
  std::vector<SegmentInsertion> plan;
  plan.push_back({"<A><D>text</D><D/></A>", 0});
  plan.push_back({"<m><n/></m>", 3});
  plan.push_back({"<D/>", 14});
  LazyDatabase via_plan;
  ASSERT_TRUE(ApplyPlan(&via_plan, plan).ok());
  LazyDatabase via_ops;
  for (const SegmentInsertion& s : plan) {
    ASSERT_TRUE(via_ops.InsertSegment(s.text, s.gp).ok());
  }
  ExpectSameState(&via_ops, &via_plan);
}

}  // namespace
}  // namespace lazyxml
