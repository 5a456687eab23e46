// Snapshot-isolated reads over the lazy log (docs/MVCC.md): a ReadView
// pinned at epoch E answers every query from exactly the epoch-E state,
// byte-for-byte, no matter what later writers commit — including a
// chunked ApplyBatch that admits the reader mid-batch. The torture test
// proves the byte-equality claim by replaying every observed epoch
// serially on a fresh database and comparing join output verbatim.

#include "core/read_view.h"

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/concurrent_database.h"
#include "core/lazy_database.h"
#include "tests/testutil.h"

namespace lazyxml {
namespace {

constexpr char kBase[] = "<seg><A><D/></A><W></W></seg>";
constexpr uint64_t kHole = 19;  // between <W> and </W>

// A failed write provably changed nothing, so it must not burn a
// mutation epoch (a stale-looking path summary and needless snapshot
// re-pins would follow). Companion to the ConcurrentDatabaseTest
// regression asserting views and queries are undisturbed by such writes.
TEST(MvccTest, FailedWritesDoNotAdvanceTheEpoch) {
  LazyDatabase db;
  ASSERT_TRUE(db.InsertSegment(kBase, 0).ok());
  const uint64_t epoch = db.mutation_epoch();

  EXPECT_FALSE(db.InsertSegment("<unclosed>", kHole).ok());
  EXPECT_EQ(db.mutation_epoch(), epoch);

  EXPECT_FALSE(db.RemoveSegment(1u << 20, 4).ok());
  EXPECT_EQ(db.mutation_epoch(), epoch);

  std::vector<UpdateOp> bad;
  bad.push_back(UpdateOp::Remove(1u << 20, 4));
  BatchStats stats;
  EXPECT_FALSE(db.ApplyBatch(bad, &stats).ok());
  EXPECT_EQ(db.mutation_epoch(), epoch);

  ASSERT_TRUE(db.InsertSegment("<D/>", kHole).ok());
  EXPECT_EQ(db.mutation_epoch(), epoch + 1);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(MvccTest, ReadViewIsolatedFromLaterWrites) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment(kBase, 0).ok());

  auto view_or = db.OpenView();
  ASSERT_TRUE(view_or.ok());
  ReadView view = std::move(view_or).ValueOrDie();
  const auto before = view.JoinGlobal("A", "D").ValueOrDie();
  ASSERT_EQ(before.size(), 1u);

  // Writers proceed: grow the document, then tear the original pair out.
  ASSERT_TRUE(db.InsertSegment("<D><D/></D>", kHole).ok());
  ASSERT_TRUE(db.RemoveSegment(5, 11).ok());  // removes <A><D/></A>

  // The live database has moved on...
  EXPECT_EQ(db.JoinGlobal("A", "D").ValueOrDie().size(), 0u);
  // ...but the view still answers from the pinned state, stably.
  EXPECT_EQ(view.JoinGlobal("A", "D").ValueOrDie(), before);
  EXPECT_EQ(view.JoinGlobal("A", "D").ValueOrDie(), before);
  EXPECT_EQ(testutil::Xpath(view, "seg//A//D", QuerySyntax::kPath)
                .ValueOrDie()
                .refs.size(),
            1u);

  const MvccStats mid = db.MvccStatsSnapshot();
  EXPECT_EQ(mid.views_open, 1u);
  EXPECT_GT(mid.versions_retired_total, 0u);

  view = ReadView();  // close: retired versions are reclaimed
  const MvccStats after = db.MvccStatsSnapshot();
  EXPECT_EQ(after.views_open, 0u);
  EXPECT_EQ(after.versions_live, 0u);
  EXPECT_EQ(after.epochs_pinned, 0u);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

// A removal that takes only part of a (tag, segment) list replaces the
// list with a shrunk copy; the view's pre-image is the list it replaced,
// which must keep every element.
TEST(MvccTest, ReadViewIsolatedFromPartialRemoval) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<seg><A><D/></A><A><D/></A></seg>", 0).ok());
  auto view_or = db.OpenView();
  ASSERT_TRUE(view_or.ok());
  ReadView view = std::move(view_or).ValueOrDie();
  const auto before = view.JoinGlobal("A", "D").ValueOrDie();
  ASSERT_EQ(before.size(), 2u);

  ASSERT_TRUE(db.RemoveSegment(16, 11).ok());  // the second <A><D/></A>
  EXPECT_EQ(db.JoinGlobal("A", "D").ValueOrDie().size(), 1u);
  EXPECT_EQ(view.JoinGlobal("A", "D").ValueOrDie(), before);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(MvccTest, ReadViewSurvivesCompaction) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment(kBase, 0).ok());
  ASSERT_TRUE(db.InsertSegment("<A><D/></A>", kHole).ok());

  auto view_or = db.OpenView();
  ASSERT_TRUE(view_or.ok());
  ReadView view = std::move(view_or).ValueOrDie();
  const auto before = view.JoinGlobal("A", "D").ValueOrDie();
  ASSERT_EQ(before.size(), 2u);

  // Compaction rewrites segments (content-preserving), then a removal
  // changes the document for real. The view must notice neither.
  ASSERT_TRUE(db.CompactAll().ok());
  ASSERT_TRUE(db.RemoveSegment(kHole, 11).ok());
  EXPECT_EQ(db.JoinGlobal("A", "D").ValueOrDie().size(), 1u);
  EXPECT_EQ(view.JoinGlobal("A", "D").ValueOrDie(), before);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(MvccTest, MutableBypassPoisonsOpenViews) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment(kBase, 0).ok());

  auto view_or = db.OpenView();
  ASSERT_TRUE(view_or.ok());
  ReadView view = std::move(view_or).ValueOrDie();
  ASSERT_TRUE(view.JoinByName("A", "D").ok());

  // Out-of-band mutation through the unsynchronized escape hatch: the
  // view can no longer promise its pinned state and must fail closed.
  db.UnsynchronizedAccess().mutable_update_log();
  auto poisoned = view.JoinByName("A", "D");
  ASSERT_FALSE(poisoned.ok());
  EXPECT_TRUE(poisoned.status().IsInternal());
  EXPECT_TRUE(db.MvccStatsSnapshot().poisoned);

  view = ReadView();  // last view closes: poison clears
  EXPECT_FALSE(db.MvccStatsSnapshot().poisoned);
  auto fresh = db.OpenView();
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh.ValueOrDie().JoinByName("A", "D").ok());
}

// A summary-exact answer ("every b") and a short listing of it read the
// view's pinned summary, tag list and runs, never the live ones: the rows
// stay identical while a writer commits inserts and removals of b.
TEST(MvccTest, SummaryExactAnswersStayPinnedWhileAWriterCommits) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<r><a><b/></a><a><b/><b/></a></r>", 0).ok());
  auto view_or = db.OpenView();
  ASSERT_TRUE(view_or.ok());
  ReadView view = std::move(view_or).ValueOrDie();
  const XPathResult full =
      testutil::Xpath(view, "a/b", QuerySyntax::kPath).ValueOrDie();
  ASSERT_EQ(full.joins_executed, 0u);
  ASSERT_EQ(full.count, 3u);
  const auto first_two = [&view] {
    return view
        .Query([](QueryFacade& f) {
          return EvaluateQuery(&f, QuerySyntax::kPath, "a/b", {}, 2);
        })
        .ValueOrDie();
  };
  const XPathResult cut = first_two();
  ASSERT_EQ(cut.refs.size(), 2u);
  const XPathResult global = testutil::Xpath(view, "a/b").ValueOrDie();

  constexpr int kWrites = 50;
  std::atomic<bool> done{false};
  std::thread writer([&db, &done] {
    for (int i = 0; i < kWrites; ++i) {
      // Just inside <r>; every third write takes the newest <a> out again.
      EXPECT_TRUE(db.InsertSegment("<a><b/></a>", 3).ok());
      if (i % 3 == 2) {
        EXPECT_TRUE(db.RemoveSegment(3, 11).ok());
      }
    }
    done.store(true);
  });
  int reads = 0;
  do {
    const XPathResult f =
        testutil::Xpath(view, "a/b", QuerySyntax::kPath).ValueOrDie();
    EXPECT_EQ(f.count, full.count);
    EXPECT_EQ(f.refs, full.refs);
    const XPathResult c = first_two();
    EXPECT_EQ(c.count, full.count);
    EXPECT_EQ(c.refs, cut.refs);
    EXPECT_EQ(testutil::Xpath(view, "a/b").ValueOrDie().elements,
              global.elements);
    ++reads;
  } while (!done.load() && !HasFailure());
  writer.join();
  EXPECT_GT(reads, 0);
  // The live database moved on: 3 + 50 inserted - 16 removed.
  EXPECT_EQ(
      testutil::Xpath(db, "a/b", QuerySyntax::kPath).ValueOrDie().count,
      37u);
  EXPECT_EQ(testutil::Xpath(view, "a/b", QuerySyntax::kPath).ValueOrDie().refs,
            full.refs);
}

TEST(MvccTest, ConcurrentViewsShareOneSnapshotPerEpoch) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment(kBase, 0).ok());
  db.Freeze();

  std::vector<ReadView> views;
  for (int i = 0; i < 4; ++i) {
    auto v = db.OpenView();
    ASSERT_TRUE(v.ok());
    views.push_back(std::move(v).ValueOrDie());
  }
  EXPECT_EQ(db.MvccStatsSnapshot().views_open, 4u);
  // All four pin the same epoch, and the clone is shared, not repeated.
  EXPECT_EQ(db.MvccStatsSnapshot().epochs_pinned, 1u);
  for (auto& v : views) EXPECT_EQ(v.epoch(), views[0].epoch());
  views.clear();
  EXPECT_EQ(db.MvccStatsSnapshot().views_open, 0u);
}

// The tentpole torture test. One writer applies a batch in 1-op chunks
// (the lock is dropped between chunks, so readers land mid-batch);
// reader threads keep opening views and recording (epoch, join output).
// Because each chunk is one ApplyBatch call, the epoch pinned by a view
// identifies EXACTLY the applied prefix: epoch E = base epoch + k means
// ops[0..k) applied. Afterwards every recorded epoch is replayed
// serially on a fresh database and the join output must match verbatim
// — a reader that ever saw a torn mid-chunk state or a missing
// pre-image version fails the byte-comparison.
TEST(MvccTest, ChunkedBatchReadersSeeExactPrefixes) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment(kBase, 0).ok());
  db.Freeze();  // summary built: views open on the shared fast path
  const uint64_t base_epoch = db.UnsynchronizedAccess().mutation_epoch();

  // Alternating insert/remove of a <D/> in the hole: every prefix is a
  // distinct document state (either 1 or 2 A//D pairs), and removes
  // retire versions of the touched (tag, segment) lists.
  std::vector<UpdateOp> ops;
  for (int i = 0; i < 60; ++i) {
    ops.push_back(UpdateOp::Insert("<D/>", kHole));
    ops.push_back(UpdateOp::Remove(kHole, 4));
  }
  db.SetBatchChunkOps(1);

  std::mutex seen_mu;
  std::map<uint64_t, std::vector<JoinPair>> seen;  // epoch -> join output
  std::atomic<int> failures{0};
  std::atomic<bool> writer_done{false};

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      // A fixed floor of iterations keeps the oracle fed even when the
      // writer finishes first; past the floor, stop once it has.
      for (int i = 0;
           i < 100 || !writer_done.load(std::memory_order_relaxed); ++i) {
        auto view_or = db.OpenView();
        if (!view_or.ok()) {
          ++failures;
          continue;
        }
        ReadView view = std::move(view_or).ValueOrDie();
        auto first = view.JoinGlobal("A", "D");
        auto second = view.JoinGlobal("A", "D");
        if (!first.ok() || !second.ok() ||
            first.ValueOrDie() != second.ValueOrDie()) {
          ++failures;  // a view must be stable across its own lifetime
          continue;
        }
        std::lock_guard<std::mutex> lock(seen_mu);
        auto [it, inserted] =
            seen.emplace(view.epoch(), first.ValueOrDie());
        if (!inserted && it->second != first.ValueOrDie()) {
          ++failures;  // two views of one epoch must agree
        }
      }
    });
  }

  BatchStats stats;
  Status batch = db.ApplyBatch(ops, &stats);
  writer_done = true;
  for (auto& t : readers) t.join();
  ASSERT_TRUE(batch.ok()) << batch.ToString();
  EXPECT_EQ(stats.applied, ops.size());
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());
  const MvccStats end = db.MvccStatsSnapshot();
  EXPECT_EQ(end.views_open, 0u);
  EXPECT_EQ(end.versions_live, 0u);

  // Serial replay oracle: epoch E pinned ops[0 .. E - base_epoch).
  ASSERT_FALSE(seen.empty());
  for (const auto& [epoch, pairs] : seen) {
    ASSERT_GE(epoch, base_epoch);
    const size_t prefix = static_cast<size_t>(epoch - base_epoch);
    ASSERT_LE(prefix, ops.size());
    LazyDatabase replay;
    ASSERT_TRUE(replay.InsertSegment(kBase, 0).ok());
    for (size_t i = 0; i < prefix; ++i) {
      BatchStats one;
      ASSERT_TRUE(replay.ApplyBatch({&ops[i], 1}, &one).ok());
    }
    EXPECT_EQ(replay.JoinGlobal("A", "D").ValueOrDie(), pairs)
        << "view pinned at epoch " << epoch << " (prefix of " << prefix
        << " ops) diverges from serial replay";
  }
}

}  // namespace
}  // namespace lazyxml
