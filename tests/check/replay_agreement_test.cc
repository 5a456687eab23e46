// Recovery, salvage and the storage scrubber read a database directory
// through one reader (storage/directory_reader.h), so they must agree on
// every damaged WAL: recovery succeeds exactly when the scrub files no
// storage error, all three replay the same records, and salvage cuts the
// history where the scrub stops. The sweep damages a two-segment WAL at
// every truncation prefix and with a bit flip in every byte, with and
// without a base snapshot. Each policy runs on its own copy of the
// directory, because recovery and salvage write.

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/storage_check.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "common/serial.h"
#include "core/snapshot.h"
#include "core/update_capture.h"
#include "storage/recovery.h"
#include "storage/salvage.h"
#include "storage/wal_layout.h"

namespace lazyxml {
namespace {

using Files = std::map<std::string, std::string>;

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lazyxml_agree_" + name;
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  for (const std::string sub : {"/quarantine", ""}) {
    auto names = ListDirectory(dir + sub);
    if (!names.ok()) continue;
    for (const auto& n : names.ValueOrDie()) {
      if (n != "quarantine") {
        EXPECT_TRUE(RemoveFileIfExists(dir + sub + "/" + n).ok());
      }
    }
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

std::string Frame(const LogRecord& record) {
  const std::string payload = EncodeLogRecord(record);
  ByteWriter frame;
  frame.PutU32(crc32c::Mask(crc32c::Value(payload)));
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  return frame.TakeBuffer() + payload;
}

/// The undamaged directory: an update script over every record type,
/// optionally with its first records folded into snapshot 1, and the
/// rest journaled in two WAL segments.
Files BuildDirectory(bool with_snapshot) {
  LazyDatabase db;
  VectorCapture capture;
  db.set_update_capture(&capture);
  EXPECT_TRUE(db.InsertSegment("<a><b/><w></w><b/></a>", 0).ok());
  EXPECT_TRUE(db.InsertSegment("<c><b/><d/></c>", 10).ok());
  EXPECT_TRUE(db.RemoveSegment(3, 4).ok());
  EXPECT_TRUE(db.CollapseSubtree(2).ok());
  EXPECT_TRUE(db.InsertSegment("<e><b>x</b></e>", 0).ok());
  EXPECT_TRUE(db.InsertSegment("<f/>", 3).ok());
  EXPECT_TRUE(db.RemoveSegment(3, 4).ok());
  db.set_update_capture(nullptr);
  const std::vector<LogRecord>& log = capture.records;

  Files files;
  size_t first = 0;
  uint64_t segment = 1;
  if (with_snapshot) {
    LazyDatabase base;
    for (first = 0; first < 2; ++first) {
      EXPECT_TRUE(ApplyLogRecord(&base, log[first]).ok());
    }
    files[SnapshotFileName(1)] = SerializeDatabase(base).ValueOrDie();
    segment = 2;
  }
  const size_t split = first + (log.size() - first) / 2;
  for (size_t i = first; i < log.size(); ++i) {
    files[WalSegmentFileName(i < split ? segment : segment + 1)] +=
        Frame(log[i]);
  }
  return files;
}

void WriteDirectory(const std::string& dir, const Files& files) {
  for (const auto& [name, bytes] : files) {
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + name, bytes, /*sync=*/false).ok());
  }
}

bool HasStorageError(const check::CheckReport& report) {
  for (const check::CheckFinding& f : report.findings()) {
    if (f.severity == check::Severity::kError && f.subsystem == "storage") {
      return true;
    }
  }
  return false;
}

/// Runs the scrubber, recovery and salvage on copies of `files` and
/// holds them to one verdict.
void ExpectAgreement(const Files& files, const std::string& label) {
  SCOPED_TRACE(label);
  // ctest runs the tests in parallel: one set of directories per test.
  std::string test =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(test.begin(), test.end(), '/', '_');
  const std::string scrub_dir = FreshDir(test + "_scrub");
  const std::string recover_dir = FreshDir(test + "_recover");
  const std::string salvage_dir = FreshDir(test + "_salvage");
  WriteDirectory(scrub_dir, files);
  WriteDirectory(recover_dir, files);
  WriteDirectory(salvage_dir, files);

  check::DirectoryReplay replay;
  auto scrub = check::CheckDatabaseDirectory(scrub_dir, {}, &replay);
  ASSERT_TRUE(scrub.ok()) << scrub.status().ToString();
  const bool storage_error = HasStorageError(scrub.ValueOrDie());

  auto recovered = RecoverDatabase(recover_dir);
  EXPECT_EQ(recovered.ok(), !storage_error)
      << recovered.status().ToString() << "\n"
      << scrub.ValueOrDie().ToString();

  auto salvaged = SalvageDatabase(salvage_dir);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  const DamageReport& damage = salvaged.ValueOrDie().damage;
  EXPECT_EQ(damage.records_recovered, replay.records_replayed);
  const DamagedArtifact* cut = nullptr;
  for (const DamagedArtifact& a : damage.artifacts) {
    if (a.reason == "wal-torn" || a.reason == "wal-corrupt" ||
        a.reason == "wal-diverged") {
      cut = &a;
    }
  }
  if (replay.stop_segment == 0) {
    EXPECT_EQ(cut, nullptr) << damage.ToString();
  } else if (cut == nullptr) {
    ADD_FAILURE() << "scrub stopped in segment " << replay.stop_segment
                  << " but salvage cut nothing";
  } else {
    EXPECT_EQ(cut->file, WalSegmentFileName(replay.stop_segment));
    EXPECT_EQ(cut->kept_bytes, replay.stop_bytes);
  }

  if (recovered.ok()) {
    const uint64_t replayed = recovered.ValueOrDie().stats.records_replayed;
    EXPECT_EQ(replayed, replay.records_replayed);
    EXPECT_EQ(replayed, damage.records_recovered);
    // The repaired directory reopens clean, to the same state.
    auto again = RecoverDatabase(recover_dir);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_FALSE(again.ValueOrDie().stats.torn_tail);
    EXPECT_EQ(again.ValueOrDie().stats.records_replayed, replayed);
  }
  auto after_salvage = RecoverDatabase(salvage_dir);
  ASSERT_TRUE(after_salvage.ok()) << after_salvage.status().ToString();
  EXPECT_FALSE(after_salvage.ValueOrDie().stats.torn_tail);
  EXPECT_EQ(after_salvage.ValueOrDie().stats.records_replayed,
            damage.records_recovered);
}

class ReplayAgreementTest : public ::testing::TestWithParam<bool> {};

TEST_P(ReplayAgreementTest, UndamagedDirectory) {
  ExpectAgreement(BuildDirectory(GetParam()), "undamaged");
}

TEST_P(ReplayAgreementTest, EveryTruncationPrefix) {
  const Files clean = BuildDirectory(GetParam());
  for (const auto& [name, bytes] : clean) {
    if (!ParseWalSegmentFileName(name)) continue;
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      Files damaged = clean;
      damaged[name] = bytes.substr(0, cut);
      ExpectAgreement(damaged, name + " cut at " + std::to_string(cut));
      if (HasFailure()) return;
    }
  }
}

TEST_P(ReplayAgreementTest, EveryByteBitFlip) {
  const Files clean = BuildDirectory(GetParam());
  for (const auto& [name, bytes] : clean) {
    if (!ParseWalSegmentFileName(name)) continue;
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      Files damaged = clean;
      damaged[name][pos] = static_cast<char>(bytes[pos] ^ (1 << (pos % 8)));
      ExpectAgreement(damaged, name + " flip at " + std::to_string(pos));
      if (HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutSnapshot, ReplayAgreementTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Snapshot" : "WalOnly";
                         });

}  // namespace
}  // namespace lazyxml
