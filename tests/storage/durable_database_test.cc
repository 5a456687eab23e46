#include "storage/durable_database.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "storage/wal_layout.h"
#include "tests/testutil.h"

namespace lazyxml {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lazyxml_durable_" + name;
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const auto& n : names.ValueOrDie()) {
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + n).ok());
  }
  return dir;
}

/// The update script from the snapshot tests, applied to any database
/// with the InsertSegment/RemoveSegment interface.
template <typename Db>
void RunScript(Db* db, std::string* shadow) {
  auto insert = [&](std::string_view text, uint64_t gp) {
    ASSERT_TRUE(db->InsertSegment(text, gp).ok());
    testutil::SpliceInsert(shadow, text, gp);
  };
  insert("<a><b/><w></w><b/></a>", 0);
  insert("<c><b/><d/></c>", 10);
  insert("<d></d>", 13);
  ASSERT_TRUE(db->RemoveSegment(3, 4).ok());
  testutil::SpliceRemove(shadow, 3, 4);
}

void ExpectMatchesShadow(LazyDatabase* db, const std::string& shadow) {
  ASSERT_TRUE(db->CheckInvariants().ok());
  for (const char* tag : {"a", "b", "c", "d", "w"}) {
    auto got = db->MaterializeGlobalElements(tag).ValueOrDie();
    auto want = testutil::ElementsOf(shadow, tag);
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << tag;
    }
  }
  EXPECT_EQ(db->JoinGlobal("a", "b").ValueOrDie(),
            testutil::OracleJoin(shadow, "a", "b"));
}

TEST(DurableDatabaseTest, UpdatesSurviveReopen) {
  const std::string dir = FreshDir("reopen");
  std::string shadow;
  SegmentId last_sid = 0;
  {
    auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
    RunScript(db.get(), &shadow);
    last_sid = db->database().update_log().next_sid();
    EXPECT_EQ(db->wal().records_appended(), 4u);  // 3 inserts + 1 remove
  }
  auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
  EXPECT_EQ(db->recovery_stats().records_replayed, 4u);
  EXPECT_FALSE(db->recovery_stats().torn_tail);
  ExpectMatchesShadow(&db->database(), shadow);
  // Sid continuity: the counter resumes exactly where it stopped.
  EXPECT_EQ(db->database().update_log().next_sid(), last_sid);
  auto sid = db->InsertSegment("<b/>", 3);
  ASSERT_TRUE(sid.ok());
  EXPECT_EQ(sid.ValueOrDie(), last_sid);
  testutil::SpliceInsert(&shadow, "<b/>", 3);
  ExpectMatchesShadow(&db->database(), shadow);
}

TEST(DurableDatabaseTest, QueriesDoNotTouchTheLogInLdMode) {
  const std::string dir = FreshDir("queries");
  std::string shadow;
  auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
  RunScript(db.get(), &shadow);
  const uint64_t before = db->wal().records_appended();
  ASSERT_TRUE(db->database().JoinGlobal("a", "b").ok());
  ASSERT_TRUE(db->database().JoinByName("c", "d").ok());
  ASSERT_TRUE(db->database().MaterializeGlobalElements("b").ok());
  EXPECT_EQ(db->wal().records_appended(), before);
}

TEST(DurableDatabaseTest, CheckpointTruncatesAndRecovers) {
  const std::string dir = FreshDir("checkpoint");
  std::string shadow;
  {
    auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
    RunScript(db.get(), &shadow);
    ASSERT_TRUE(db->Checkpoint().ok());
    // Segment 1 is covered and gone; the writer moved on; the snapshot
    // carries the state.
    EXPECT_FALSE(FileExists(dir + "/" + WalSegmentFileName(1)));
    EXPECT_TRUE(FileExists(dir + "/" + SnapshotFileName(1)));
    EXPECT_EQ(db->wal().current_segment(), 2u);
    // Post-checkpoint tail.
    ASSERT_TRUE(db->InsertSegment("<b/>", 3).ok());
    testutil::SpliceInsert(&shadow, "<b/>", 3);
  }
  auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
  EXPECT_EQ(db->recovery_stats().snapshot_index, 1u);
  EXPECT_EQ(db->recovery_stats().records_replayed, 1u);
  ExpectMatchesShadow(&db->database(), shadow);
}

TEST(DurableDatabaseTest, RepeatedCheckpointsKeepOnlyTheNewest) {
  const std::string dir = FreshDir("repeat_checkpoint");
  std::string shadow;
  auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
  RunScript(db.get(), &shadow);
  ASSERT_TRUE(db->Checkpoint().ok());
  ASSERT_TRUE(db->InsertSegment("<b/>", 3).ok());
  testutil::SpliceInsert(&shadow, "<b/>", 3);
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_FALSE(FileExists(dir + "/" + SnapshotFileName(1)));
  EXPECT_TRUE(FileExists(dir + "/" + SnapshotFileName(2)));
  EXPECT_FALSE(FileExists(dir + "/" + WalSegmentFileName(2)));
  // A checkpoint with no new records still works (empty coverage delta).
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(FileExists(dir + "/" + SnapshotFileName(3)));
}

TEST(DurableDatabaseTest, AllSyncPoliciesRoundTrip) {
  for (WalSyncPolicy policy :
       {WalSyncPolicy::kNever, WalSyncPolicy::kEveryRecord,
        WalSyncPolicy::kBatchBytes}) {
    const std::string dir =
        FreshDir(std::string("policy_") + WalSyncPolicyName(policy));
    DurableOptions options;
    options.wal.sync_policy = policy;
    options.wal.batch_bytes = 64;
    std::string shadow;
    {
      auto db = DurableLazyDatabase::Open(dir, options).ValueOrDie();
      RunScript(db.get(), &shadow);
      ASSERT_TRUE(db->Sync().ok());
    }
    auto db = DurableLazyDatabase::Open(dir, options).ValueOrDie();
    ExpectMatchesShadow(&db->database(), shadow);
  }
}

TEST(DurableDatabaseTest, TornTailOnReopenIsTruncatedAway) {
  const std::string dir = FreshDir("torn");
  std::string shadow;
  {
    auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
    RunScript(db.get(), &shadow);
  }
  // Simulate a crash mid-append: garbage at the tail of the live segment.
  const std::string wal_path = dir + "/" + WalSegmentFileName(1);
  const uint64_t clean_size = FileSize(wal_path).ValueOrDie();
  {
    auto file = AppendFile::Open(wal_path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.ValueOrDie()->Append("\x13garbage").ok());
  }
  // Strict deployments see the damage as an error (checked first: strict
  // recovery never repairs).
  DurableOptions strict;
  strict.open_policy = OpenPolicy::kStrict;
  auto failed = DurableLazyDatabase::Open(dir, strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsCorruption());
  // Default recovery tolerates the tear AND repairs it on disk.
  {
    auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
    EXPECT_TRUE(db->recovery_stats().torn_tail);
    EXPECT_EQ(db->recovery_stats().records_replayed, 4u);
    ExpectMatchesShadow(&db->database(), shadow);
  }
  EXPECT_EQ(FileSize(wal_path).ValueOrDie(), clean_size);
  // Reopening again sees a whole (now non-final) segment: no tear, same
  // state — crash/open/close/open must never brick the database.
  {
    auto db = DurableLazyDatabase::Open(dir).ValueOrDie();
    EXPECT_FALSE(db->recovery_stats().torn_tail);
    ExpectMatchesShadow(&db->database(), shadow);
  }
}

TEST(DurableDatabaseTest, LazyStaticFreezePointsReplayDeterministically) {
  const std::string dir = FreshDir("ls");
  DurableOptions options;
  options.db.mode = LogMode::kLazyStatic;
  std::string shadow;
  std::vector<JoinPair> mid_query;
  {
    auto db = DurableLazyDatabase::Open(dir, options).ValueOrDie();
    RunScript(db.get(), &shadow);
    // Query on the unfrozen LS log: the database freezes and its capture
    // journals the freeze point.
    const uint64_t before = db->wal().records_appended();
    mid_query = db->database().JoinGlobal("a", "b").ValueOrDie();
    EXPECT_EQ(db->wal().records_appended(), before + 1);
    // A second query appends nothing: still frozen.
    ASSERT_TRUE(db->database().JoinGlobal("c", "d").ok());
    EXPECT_EQ(db->wal().records_appended(), before + 1);
    // Updates after the freeze, then one explicit freeze.
    ASSERT_TRUE(db->InsertSegment("<b/>", 3).ok());
    testutil::SpliceInsert(&shadow, "<b/>", 3);
    ASSERT_TRUE(db->Freeze().ok());
  }
  auto db = DurableLazyDatabase::Open(dir, options).ValueOrDie();
  EXPECT_EQ(db->database().update_log().mode(), LogMode::kLazyStatic);
  // The replayed log is frozen exactly as the original was.
  EXPECT_TRUE(db->database().update_log().frozen());
  EXPECT_EQ(db->database().JoinGlobal("a", "b").ValueOrDie(),
            testutil::OracleJoin(shadow, "a", "b"));
  ExpectMatchesShadow(&db->database(), shadow);
  (void)mid_query;
}

TEST(DurableDatabaseTest, LazyStaticCheckpointFreezesFirst) {
  const std::string dir = FreshDir("ls_checkpoint");
  DurableOptions options;
  options.db.mode = LogMode::kLazyStatic;
  std::string shadow;
  {
    auto db = DurableLazyDatabase::Open(dir, options).ValueOrDie();
    RunScript(db.get(), &shadow);
    // Serialization requires a frozen LS log; Checkpoint must handle it.
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  auto db = DurableLazyDatabase::Open(dir, options).ValueOrDie();
  EXPECT_EQ(db->recovery_stats().snapshot_index, 1u);
  ExpectMatchesShadow(&db->database(), shadow);
}

// Crash simulation at the durable level: truncate the live WAL at every
// byte prefix, reopen, and check the recovered database both matches the
// replayed-record prefix and accepts further updates.
TEST(DurableDatabaseTest, CrashAtEveryWalPrefixLeavesAUsableDatabase) {
  const std::string build_dir = FreshDir("crash_build");
  std::string shadow;
  {
    auto db = DurableLazyDatabase::Open(build_dir).ValueOrDie();
    RunScript(db.get(), &shadow);
  }
  const std::string wal_name = WalSegmentFileName(1);
  const std::string data =
      ReadFileToString(build_dir + "/" + wal_name).ValueOrDie();

  const std::string dir = FreshDir("crash_run");
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    // Reset the directory to "crashed after writing `cut` bytes".
    auto names = ListDirectory(dir).ValueOrDie();
    for (const auto& n : names) {
      ASSERT_TRUE(RemoveFileIfExists(dir + "/" + n).ok());
    }
    ASSERT_TRUE(
        WriteFileAtomic(dir + "/" + wal_name, data.substr(0, cut)).ok());
    auto db = DurableLazyDatabase::Open(dir);
    ASSERT_TRUE(db.ok()) << "cut " << cut << ": "
                         << db.status().ToString();
    auto& d = *db.ValueOrDie();
    ASSERT_TRUE(d.database().CheckInvariants().ok()) << "cut " << cut;
    // Whatever survived, the database keeps working: a fresh insert at
    // position 0 is always legal.
    ASSERT_TRUE(d.InsertSegment("<x><y/></x>", 0).ok()) << "cut " << cut;
    ASSERT_TRUE(d.database().JoinGlobal("x", "y").ok()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace lazyxml
