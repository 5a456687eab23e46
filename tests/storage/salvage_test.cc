#include "storage/salvage.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "core/snapshot.h"
#include "core/update_capture.h"
#include "storage/durable_database.h"
#include "storage/wal_layout.h"
#include "storage/wal_writer.h"

namespace lazyxml {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lazyxml_salvage_" + name;
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const auto& n : names.ValueOrDie()) {
    if (n == "quarantine") {
      auto inner = ListDirectory(dir + "/" + n);
      if (inner.ok()) {
        for (const auto& q : inner.ValueOrDie()) {
          EXPECT_TRUE(RemoveFileIfExists(dir + "/" + n + "/" + q).ok());
        }
      }
      continue;
    }
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + n).ok());
  }
  return dir;
}

class VectorCapture : public UpdateCapture {
 public:
  Status OnInsertSegment(SegmentId sid, std::string_view text,
                         uint64_t gp) override {
    records.push_back(LogRecord::InsertSegment(sid, text, gp));
    return Status::OK();
  }
  Status OnRemoveRange(uint64_t gp, uint64_t length) override {
    records.push_back(LogRecord::RemoveRange(gp, length));
    return Status::OK();
  }
  Status OnCollapseSubtree(SegmentId old_sid, SegmentId new_sid) override {
    records.push_back(LogRecord::CollapseSubtree(old_sid, new_sid));
    return Status::OK();
  }

  std::vector<LogRecord> records;
};

std::unique_ptr<LazyDatabase> BuildReference(std::vector<LogRecord>* log) {
  auto db = std::make_unique<LazyDatabase>();
  VectorCapture capture;
  db->set_update_capture(&capture);
  EXPECT_TRUE(db->InsertSegment("<a><b/><w></w><b/></a>", 0).ok());
  EXPECT_TRUE(db->InsertSegment("<c><b/><d/></c>", 10).ok());
  EXPECT_TRUE(db->RemoveSegment(3, 4).ok());
  EXPECT_TRUE(db->CollapseSubtree(2).ok());
  db->set_update_capture(nullptr);
  *log = capture.records;
  return db;
}

void WriteWal(const std::string& dir, uint64_t index,
              const std::vector<LogRecord>& records) {
  auto writer = WalWriter::Open(dir, index, {}).ValueOrDie();
  for (const auto& rec : records) {
    ASSERT_TRUE(writer->Append(rec).ok());
  }
}

size_t QuarantineCount(const std::string& dir) {
  auto names = ListDirectory(dir + "/quarantine");
  return names.ok() ? names.ValueOrDie().size() : 0;
}

TEST(SalvageTest, CleanDirectoryNeedsNoRepairs) {
  const std::string dir = FreshDir("clean");
  std::vector<LogRecord> log;
  auto reference = BuildReference(&log);
  WriteWal(dir, 1, log);
  auto result = SalvageDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SalvageResult& salvaged = result.ValueOrDie();
  EXPECT_TRUE(salvaged.damage.clean());
  EXPECT_EQ(salvaged.damage.records_recovered, log.size());
  EXPECT_EQ(salvaged.damage.records_dropped, 0u);
  EXPECT_EQ(salvaged.db->Stats().num_segments,
            reference->Stats().num_segments);
  EXPECT_EQ(QuarantineCount(dir), 0u);
}

TEST(SalvageTest, MidChainDamageKeepsVerifiedPrefix) {
  const std::string dir = FreshDir("mid_chain");
  std::vector<LogRecord> log;
  BuildReference(&log);
  const size_t split = log.size() / 2;
  WriteWal(dir, 1, {log.begin(), log.begin() + split});
  WriteWal(dir, 2, {log.begin() + split, log.end()});
  const std::string path = dir + "/" + WalSegmentFileName(1);
  const std::string original = ReadFileToString(path).ValueOrDie();
  std::string damaged = original;
  damaged.resize(damaged.size() - 3);  // rip the last frame of segment 1
  ASSERT_TRUE(WriteFileAtomic(path, damaged).ok());

  // Recovery refuses: mid-chain damage is Corruption.
  ASSERT_FALSE(RecoverDatabase(dir).ok());

  auto result = SalvageDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SalvageResult& salvaged = result.ValueOrDie();
  ASSERT_EQ(salvaged.damage.artifacts.size(), 2u)
      << salvaged.damage.ToString();
  const DamagedArtifact& torn = salvaged.damage.artifacts[0];
  EXPECT_EQ(torn.file, WalSegmentFileName(1));
  EXPECT_EQ(torn.reason, "wal-torn");
  EXPECT_FALSE(torn.quarantined_as.empty());
  EXPECT_GT(torn.kept_bytes, 0u);
  EXPECT_GT(torn.dropped_bytes, 0u);
  const DamagedArtifact& unreachable = salvaged.damage.artifacts[1];
  EXPECT_EQ(unreachable.file, WalSegmentFileName(2));
  EXPECT_EQ(unreachable.reason, "wal-unreachable");

  // The verified prefix is exactly the records before the tear.
  EXPECT_EQ(salvaged.damage.records_recovered, split - 1);
  LazyDatabase want;
  for (size_t i = 0; i + 1 < split; ++i) {
    ASSERT_TRUE(ApplyLogRecord(&want, log[i]).ok());
  }
  EXPECT_EQ(salvaged.db->Stats().num_segments, want.Stats().num_segments);
  EXPECT_EQ(salvaged.db->Stats().num_elements, want.Stats().num_elements);

  // Original bytes survive in quarantine; the dir reopens cleanly.
  EXPECT_EQ(QuarantineCount(dir), 2u);
  auto reopened = RecoverDatabase(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie().stats.records_replayed, split - 1);
}

TEST(SalvageTest, UnloadableSnapshotFallsBackAndQuarantines) {
  const std::string dir = FreshDir("bad_snap");
  std::vector<LogRecord> log;
  auto reference = BuildReference(&log);
  LazyDatabase empty;
  ASSERT_TRUE(SaveSnapshot(empty, dir + "/" + SnapshotFileName(1)).ok());
  WriteWal(dir, 2, log);
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/" + SnapshotFileName(4), "garbage").ok());

  auto result = SalvageDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SalvageResult& salvaged = result.ValueOrDie();
  ASSERT_EQ(salvaged.damage.artifacts.size(), 1u)
      << salvaged.damage.ToString();
  EXPECT_EQ(salvaged.damage.artifacts[0].reason, "snapshot-unloadable");
  EXPECT_EQ(salvaged.damage.artifacts[0].file, SnapshotFileName(4));
  EXPECT_EQ(salvaged.stats.snapshot_index, 1u);
  EXPECT_EQ(salvaged.damage.records_recovered, log.size());
  EXPECT_EQ(salvaged.db->Stats().num_segments,
            reference->Stats().num_segments);
  EXPECT_FALSE(FileExists(dir + "/" + SnapshotFileName(4)));
}

TEST(SalvageTest, OrphanedSegmentPastGapIsQuarantined) {
  const std::string dir = FreshDir("orphan");
  std::vector<LogRecord> log;
  BuildReference(&log);
  const size_t split = log.size() / 2;
  WriteWal(dir, 1, {log.begin(), log.begin() + split});
  WriteWal(dir, 3, {log.begin() + split, log.end()});
  auto result = SalvageDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SalvageResult& salvaged = result.ValueOrDie();
  ASSERT_EQ(salvaged.damage.artifacts.size(), 1u)
      << salvaged.damage.ToString();
  EXPECT_EQ(salvaged.damage.artifacts[0].reason, "wal-orphaned");
  EXPECT_EQ(salvaged.damage.artifacts[0].file, WalSegmentFileName(3));
  EXPECT_EQ(salvaged.damage.records_recovered, split);
}

TEST(SalvageTest, DivergingRecordCutsAtRecordBoundary) {
  const std::string dir = FreshDir("diverge");
  std::vector<LogRecord> log;
  BuildReference(&log);
  log[1].sid = 77;  // replay of the second insert will assign sid 2
  WriteWal(dir, 1, log);
  auto result = SalvageDatabase(dir);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const SalvageResult& salvaged = result.ValueOrDie();
  ASSERT_EQ(salvaged.damage.artifacts.size(), 1u)
      << salvaged.damage.ToString();
  EXPECT_EQ(salvaged.damage.artifacts[0].reason, "wal-diverged");
  EXPECT_EQ(salvaged.damage.records_recovered, 1u);
  EXPECT_GE(salvaged.damage.records_dropped, 1u);
  LazyDatabase want;
  ASSERT_TRUE(ApplyLogRecord(&want, log[0]).ok());
  EXPECT_EQ(salvaged.db->Stats().num_elements, want.Stats().num_elements);
}

TEST(SalvageTest, ReportSerializesMachineReadably) {
  const std::string dir = FreshDir("report");
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/" + SnapshotFileName(2), "garbage").ok());
  auto result = SalvageDatabase(dir);
  ASSERT_TRUE(result.ok());
  const DamageReport& damage = result.ValueOrDie().damage;
  ASSERT_FALSE(damage.clean());
  const std::string json = damage.ToJson();
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("snapshot-unloadable"), std::string::npos) << json;
  EXPECT_NE(json.find("\"quarantined_as\""), std::string::npos) << json;
  const std::string text = damage.ToString();
  EXPECT_NE(text.find("snapshot-000002.bin"), std::string::npos) << text;
}

TEST(SalvageTest, BestEffortOpenFallsBackToSalvage) {
  const std::string dir = FreshDir("best_effort");
  std::vector<LogRecord> log;
  BuildReference(&log);
  const size_t split = log.size() / 2;
  WriteWal(dir, 1, {log.begin(), log.begin() + split});
  WriteWal(dir, 2, {log.begin() + split, log.end()});
  const std::string path = dir + "/" + WalSegmentFileName(1);
  std::string data = ReadFileToString(path).ValueOrDie();
  data.resize(data.size() - 3);
  ASSERT_TRUE(WriteFileAtomic(path, data).ok());

  // The default policy (kRepairTornTail) refuses mid-chain damage and
  // leaves it in place.
  auto refused = DurableLazyDatabase::Open(dir);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsCorruption());
  EXPECT_TRUE(FileExists(dir + "/" + WalSegmentFileName(2)));

  DurableOptions options;
  options.open_policy = OpenPolicy::kBestEffort;
  auto opened = DurableLazyDatabase::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DurableLazyDatabase& db = *opened.ValueOrDie();
  EXPECT_FALSE(db.damage_report().clean());
  EXPECT_EQ(db.damage_report().records_recovered, split - 1);

  // The salvaged handle accepts updates and the directory reopens
  // cleanly afterwards — under the default policy this time.
  const uint64_t doc_len = db.database().Stats().super_document_length;
  ASSERT_TRUE(db.InsertSegment("<zz>q</zz>", doc_len).ok());
  ASSERT_TRUE(db.Sync().ok());
  const auto want = db.database().Stats();
  opened.ValueOrDie().reset();
  auto again = DurableLazyDatabase::Open(dir);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.ValueOrDie()->damage_report().clean());
  const auto got = again.ValueOrDie()->database().Stats();
  EXPECT_EQ(want.num_segments, got.num_segments);
  EXPECT_EQ(want.num_elements, got.num_elements);
  EXPECT_EQ(want.super_document_length, got.super_document_length);
}

TEST(SalvageTest, CleanDirectoryBestEffortOpenStaysStrict) {
  const std::string dir = FreshDir("best_effort_clean");
  DurableOptions options;
  options.open_policy = OpenPolicy::kBestEffort;
  auto opened = DurableLazyDatabase::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  EXPECT_TRUE(opened.ValueOrDie()->damage_report().clean());
  EXPECT_EQ(QuarantineCount(dir), 0u);
}

// --- Storage edge cases: recovery AND salvage must both cope -------------

TEST(SalvageTest, ZeroLengthSegmentFile) {
  const std::string dir = FreshDir("zero_len");
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + WalSegmentFileName(1), "").ok());

  auto recovered = RecoverDatabase(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.ValueOrDie().stats.records_replayed, 0u);
  EXPECT_FALSE(recovered.ValueOrDie().stats.torn_tail);
  EXPECT_EQ(recovered.ValueOrDie().next_wal_index, 2u);

  auto salvaged = SalvageDatabase(dir);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_TRUE(salvaged.ValueOrDie().damage.clean());
  EXPECT_EQ(salvaged.ValueOrDie().db->Stats().num_segments, 0u);
  EXPECT_EQ(salvaged.ValueOrDie().next_wal_index, 2u);
}

TEST(SalvageTest, SegmentContainingOnlyATornFrame) {
  const std::string dir = FreshDir("torn_only");
  // Five bytes: shorter than a frame header, so no record ever existed.
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/" + WalSegmentFileName(1), "\x01\x02\x03\x04\x05")
          .ok());

  RecoveryOptions strict;
  strict.strict = true;
  ASSERT_FALSE(RecoverDatabase(dir, strict).ok());

  auto recovered = RecoverDatabase(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.ValueOrDie().stats.torn_tail);
  EXPECT_EQ(recovered.ValueOrDie().stats.records_replayed, 0u);
  EXPECT_EQ(recovered.ValueOrDie().db->Stats().num_segments, 0u);

  // Re-plant the damage (default recovery truncates it away) and salvage.
  ASSERT_TRUE(
      WriteFileAtomic(dir + "/" + WalSegmentFileName(1), "\x01\x02\x03\x04\x05")
          .ok());
  auto salvaged = SalvageDatabase(dir);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  const SalvageResult& result = salvaged.ValueOrDie();
  ASSERT_EQ(result.damage.artifacts.size(), 1u) << result.damage.ToString();
  EXPECT_EQ(result.damage.artifacts[0].reason, "wal-torn");
  EXPECT_EQ(result.damage.artifacts[0].kept_bytes, 0u);
  EXPECT_EQ(result.damage.artifacts[0].dropped_bytes, 5u);
  EXPECT_EQ(result.damage.records_recovered, 0u);
  // The written-back verified prefix is the empty file.
  auto rewritten = ReadFileToString(dir + "/" + WalSegmentFileName(1));
  ASSERT_TRUE(rewritten.ok());
  EXPECT_TRUE(rewritten.ValueOrDie().empty());
}

TEST(SalvageTest, ValidSnapshotPlusEmptyWal) {
  const std::string dir = FreshDir("snap_empty_wal");
  std::vector<LogRecord> log;
  auto reference = BuildReference(&log);
  ASSERT_TRUE(SaveSnapshot(*reference, dir + "/" + SnapshotFileName(3)).ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + WalSegmentFileName(4), "").ok());

  auto recovered = RecoverDatabase(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.ValueOrDie().stats.snapshot_index, 3u);
  EXPECT_EQ(recovered.ValueOrDie().stats.records_replayed, 0u);
  EXPECT_EQ(recovered.ValueOrDie().db->Stats().num_segments,
            reference->Stats().num_segments);
  EXPECT_EQ(recovered.ValueOrDie().next_wal_index, 5u);

  auto salvaged = SalvageDatabase(dir);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  EXPECT_TRUE(salvaged.ValueOrDie().damage.clean());
  EXPECT_EQ(salvaged.ValueOrDie().db->Stats().num_segments,
            reference->Stats().num_segments);
  EXPECT_EQ(salvaged.ValueOrDie().next_wal_index, 5u);
}

}  // namespace
}  // namespace lazyxml
