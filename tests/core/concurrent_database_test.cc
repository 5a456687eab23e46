#include "core/concurrent_database.h"

#include <atomic>
#include <thread>

#include <gtest/gtest.h>

#include "tests/testutil.h"

namespace lazyxml {
namespace {

TEST(ConcurrentDatabaseTest, SingleThreadedParity) {
  ConcurrentLazyDatabase db;
  std::string shadow;
  ASSERT_TRUE(db.InsertSegment("<seg><A><D/></A><W></W></seg>", 0).ok());
  testutil::SpliceInsert(&shadow, "<seg><A><D/></A><W></W></seg>", 0);
  ASSERT_TRUE(db.InsertSegment("<D></D>", 19).ok());
  testutil::SpliceInsert(&shadow, "<D></D>", 19);
  auto got = db.JoinGlobal("A", "D").ValueOrDie();
  EXPECT_EQ(got, testutil::OracleJoin(shadow, "A", "D"));
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.Stats().num_segments, 2u);
  EXPECT_FALSE(testutil::Xpath(db, "seg//A", QuerySyntax::kPath)
                   .ValueOrDie()
                   .refs.empty());
  EXPECT_FALSE(testutil::Xpath(db, "seg[A]//D", QuerySyntax::kTwig)
                   .ValueOrDie()
                   .refs.empty());
}

TEST(ConcurrentDatabaseTest, ParallelReaders) {
  ConcurrentLazyDatabase db;
  // Bulk setup single-threaded.
  LazyDatabase& raw = db.UnsynchronizedAccess();
  std::string top = "<seg>";
  for (int i = 0; i < 500; ++i) top += "<A><D/></A>";
  top += "<W></W></seg>";
  ASSERT_TRUE(raw.InsertSegment(top, 0).ok());
  ASSERT_TRUE(raw.InsertSegment("<D/>", top.size() - 9).ok());

  std::atomic<int> failures{0};
  std::atomic<uint64_t> total_pairs{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&db, &failures, &total_pairs] {
      for (int i = 0; i < 50; ++i) {
        auto r = db.JoinByName("A", "D");
        if (!r.ok() || r.ValueOrDie().pairs.size() != 500) {
          ++failures;
        } else {
          total_pairs += r.ValueOrDie().pairs.size();
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(total_pairs.load(), 8u * 50u * 500u);
}

TEST(ConcurrentDatabaseTest, ReadersWithConcurrentWriter) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<seg><A><D/></A><W></W></seg>", 0).ok());
  const uint64_t hole = 19;  // between <W> and </W>

  // Readers run a bounded loop so the test has a definite end; the
  // unbounded-reader starvation case is WriterNotStarvedByReaderStorm.
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&db, &failures] {
      for (int i = 0; i < 150; ++i) {
        auto r = db.JoinByName("A", "D");
        // Result size varies with writer progress but must be >= 1 (the
        // in-segment pair never goes away).
        if (!r.ok() || r.ValueOrDie().pairs.empty()) ++failures;
        auto s = db.Stats();
        if (s.num_segments == 0) ++failures;
      }
    });
  }
  // Writer: repeatedly insert and remove a D-carrying segment.
  const std::string extra = "<D><D/></D>";
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.InsertSegment(extra, hole).ok());
    ASSERT_TRUE(db.RemoveSegment(hole, extra.size()).ok());
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());
  auto final_join = db.JoinByName("A", "D").ValueOrDie();
  EXPECT_EQ(final_join.pairs.size(), 1u);
}

TEST(ConcurrentDatabaseTest, ReadersReproveEdgesWhileWriterClearsThem) {
  // Readers run a TWIG whose predicate the summary proves with the strong
  // edge p -> x, re-proving it with a join whenever it is unknown; the
  // writer removes and reinserts the second p's x, which clears the
  // state each time. Every answer is one of the two states' answers.
  ConcurrentLazyDatabase db;
  const std::string doc = "<r><p><x/><z/></p><p><x/><z/></p></r>";
  ASSERT_TRUE(db.InsertSegment(doc, 0).ok());
  const uint64_t second_x = doc.rfind("<x/>");

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&db, &failures] {
      for (int i = 0; i < 200; ++i) {
        auto r = testutil::Xpath(db, "p[x]/z", QuerySyntax::kTwig);
        if (!r.ok()) {
          ++failures;
          continue;
        }
        const uint64_t count = r.ValueOrDie().count;
        if (count != 1 && count != 2) ++failures;
      }
    });
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.RemoveSegment(second_x, 4).ok());
    ASSERT_TRUE(db.InsertSegment("<x/>", second_x).ok());
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());
  auto last = testutil::Xpath(db, "p[x]/z", QuerySyntax::kTwig);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.ValueOrDie().count, 2u);
}

// The writer-starvation scenario the TicketSharedMutex exists for: an
// unbounded storm of overlapping readers, and a writer that must finish a
// fixed batch of updates. Under the previous std::shared_mutex (typically
// reader-preferring on glibc) this pattern could make no writer progress
// at all; with the ticket gate each pending writer closes admission to
// new readers and the batch completes.
TEST(ConcurrentDatabaseTest, WriterNotStarvedByReaderStorm) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<seg><A><D/></A><W></W></seg>", 0).ok());
  const uint64_t hole = 19;  // between <W> and </W>

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = db.JoinByName("A", "D");
        if (!r.ok() || r.ValueOrDie().pairs.empty()) ++failures;
        ++reads;
      }
    });
  }
  // The writer's batch: if readers could starve it, this loop would hang
  // and the test would time out. The occasional pause mimics a realistic
  // writer and gives readers admission windows (a continuous writer loop
  // legitimately holds readers out — the lock is writer-priority).
  const std::string extra = "<D><D/></D>";
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.InsertSegment(extra, hole).ok());
    ASSERT_TRUE(db.RemoveSegment(hole, extra.size()).ok());
    if (i % 20 == 19) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_EQ(db.JoinByName("A", "D").ValueOrDie().pairs.size(), 1u);
  (void)reads;
}

TEST(ConcurrentDatabaseTest, LazyStaticQueriesSerialize) {
  LazyDatabaseOptions opts;
  opts.mode = LogMode::kLazyStatic;
  ConcurrentLazyDatabase db(opts);
  ASSERT_TRUE(db.InsertSegment("<seg><A><D/></A></seg>", 0).ok());
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, &failures, t] {
      for (int i = 0; i < 25; ++i) {
        if (t % 2 == 0) {
          auto r = db.JoinByName("A", "D");
          if (!r.ok()) ++failures;
        } else {
          // Interleaved updates re-dirty the LS log.
          if (!db.InsertSegment("<D/>", 8).ok()) ++failures;
          if (!db.RemoveSegment(8, 4).ok()) ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(ConcurrentDatabaseTest, WritesAreVisibleToTheNextQuery) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<seg><A><D/></A><A><D/></A></seg>", 0).ok());
  ASSERT_EQ(db.JoinByName("A", "D").ValueOrDie().pairs.size(), 2u);
  ASSERT_EQ(db.JoinByName("A", "D").ValueOrDie().pairs.size(), 2u);

  // The next query after a write sees the post-update document: three A
  // elements, each containing exactly its own D.
  ASSERT_TRUE(db.InsertSegment("<A><D/></A>", 5).ok());
  auto after = db.JoinByName("A", "D");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.ValueOrDie().pairs.size(), 3u);
}

// A REJECTED write provably changed nothing, so through the concurrent
// wrapper too it must leave the mutation epoch where it was: a view
// opened before it still pins the current state, and queries answer as
// before. A successful write then moves the epoch on.
TEST(ConcurrentDatabaseTest, FailedWritesLeaveTheStateCurrent) {
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<seg><A><D/></A><W></W></seg>", 0).ok());
  ASSERT_EQ(db.JoinByName("A", "D").ValueOrDie().pairs.size(), 1u);
  auto view_or = db.OpenView();
  ASSERT_TRUE(view_or.ok());
  ReadView view = std::move(view_or).ValueOrDie();
  const uint64_t epoch = db.UnsynchronizedAccess().mutation_epoch();
  ASSERT_EQ(view.epoch(), epoch);

  // A malformed insert and an out-of-bounds remove (both rejected before
  // any structural mutation), plus a batch whose first op is rejected.
  EXPECT_FALSE(db.InsertSegment("<unclosed>", 19).ok());
  EXPECT_FALSE(db.RemoveSegment(1u << 20, 4).ok());
  std::vector<UpdateOp> bad;
  bad.push_back(UpdateOp::Remove(1u << 20, 4));
  BatchStats stats;
  EXPECT_FALSE(db.ApplyBatch(bad, &stats).ok());

  EXPECT_EQ(db.UnsynchronizedAccess().mutation_epoch(), epoch);
  EXPECT_EQ(db.JoinByName("A", "D").ValueOrDie().pairs.size(), 1u);
  EXPECT_EQ(view.JoinByName("A", "D").ValueOrDie().pairs.size(), 1u);
  // A SUCCESSFUL write advances the epoch; the view keeps its state.
  ASSERT_TRUE(db.InsertSegment("<D/>", 19).ok());
  EXPECT_EQ(db.UnsynchronizedAccess().mutation_epoch(), epoch + 1);
  EXPECT_EQ(db.JoinByName("A", "D").ValueOrDie().pairs.size(), 1u);
  EXPECT_EQ(view.JoinByName("A", "D").ValueOrDie().pairs.size(), 1u);
}

// Regression: LS-mode queries used to take the exclusive lock forever,
// merely because the MODE was LS. After the deferred freeze is done an
// LS query touches nothing mutable, so it must run shared — the
// QueryNeedsExclusive predicate routes it. The storm would deadlock
// nothing either way; what it proves is that a frozen LS database
// sustains fully concurrent readers (plus open views) without failures.
TEST(ConcurrentDatabaseTest, LazyStaticPostFreezeReaderStorm) {
  LazyDatabaseOptions opts;
  opts.mode = LogMode::kLazyStatic;
  ConcurrentLazyDatabase db(opts);
  std::string top = "<seg>";
  for (int i = 0; i < 200; ++i) top += "<A><D/></A>";
  top += "</seg>";
  ASSERT_TRUE(db.InsertSegment(top, 0).ok());

  // Before the freeze the deferred work is pending: exclusive route.
  EXPECT_TRUE(db.UnsynchronizedAccess().QueryNeedsExclusive());
  db.Freeze();
  // After it, nothing mutable remains on the query path: shared route.
  EXPECT_FALSE(db.UnsynchronizedAccess().QueryNeedsExclusive());

  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&db, &failures] {
      for (int i = 0; i < 50; ++i) {
        auto r = db.JoinByName("A", "D");
        if (!r.ok() || r.ValueOrDie().pairs.size() != 200) ++failures;
        auto p = testutil::Xpath(db, "seg//A", QuerySyntax::kPath);
        if (!p.ok() || p.ValueOrDie().refs.size() != 200) ++failures;
        auto v = db.OpenView();
        if (!v.ok() ||
            v.ValueOrDie().JoinByName("A", "D").ValueOrDie().pairs.size() !=
                200) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // An update re-dirties the log: back to the exclusive route until the
  // next freeze.
  ASSERT_TRUE(db.InsertSegment("<D/>", 8).ok());  // inside the first <A>
  EXPECT_TRUE(db.UnsynchronizedAccess().QueryNeedsExclusive());
  EXPECT_EQ(db.JoinByName("A", "D").ValueOrDie().pairs.size(), 201u);
  EXPECT_FALSE(db.UnsynchronizedAccess().QueryNeedsExclusive());
  EXPECT_TRUE(db.CheckInvariants().ok());
}

TEST(ConcurrentDatabaseTest, CachedParallelQueriesUnderConcurrentWrites) {
  // Three readers race a writer; every join must succeed on some
  // consistent document state and invariants must hold at the end. Run
  // under TSan this exercises shared-lock readers (including self-joins,
  // which reuse one fetched run under both roles) against the facade's
  // epoch bumps and the element index's copy-on-write runs.
  ConcurrentLazyDatabase db;
  ASSERT_TRUE(db.InsertSegment("<seg><A></A></seg>", 0).ok());
  const uint64_t hole = 8;  // inside the <A> element
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&db, &stop, &failures] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = db.JoinByName("A", "D");
        if (!r.ok()) ++failures;
        auto s = db.JoinByName("A", "A");  // self-join
        if (!s.ok()) ++failures;
      }
    });
  }
  const std::string extra = "<D><D/></D>";
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.InsertSegment(extra, hole).ok());
    ASSERT_TRUE(db.RemoveSegment(hole, extra.size()).ok());
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(db.CheckInvariants().ok());
  EXPECT_TRUE(db.JoinByName("A", "D").ValueOrDie().pairs.empty());
}

}  // namespace
}  // namespace lazyxml
