#include "storage/directory_reader.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/file_io.h"
#include "core/snapshot.h"
#include "storage/recovery.h"
#include "storage/wal_layout.h"
#include "storage/wal_writer.h"

namespace lazyxml {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/lazyxml_dirreader_" + name;
  EXPECT_TRUE(CreateDirIfMissing(dir).ok());
  auto names = ListDirectory(dir);
  EXPECT_TRUE(names.ok());
  for (const auto& n : names.ValueOrDie()) {
    EXPECT_TRUE(RemoveFileIfExists(dir + "/" + n).ok());
  }
  return dir;
}

/// Writes segment `index` holding inserts of `<t/>` at gp 0 for sids
/// first_sid, first_sid + 1, ...; returns each frame's start offset.
std::vector<uint64_t> WriteSegment(const std::string& dir, uint64_t index,
                                   SegmentId first_sid, int records) {
  auto writer = WalWriter::Open(dir, index, {}).ValueOrDie();
  std::vector<uint64_t> offsets;
  for (int i = 0; i < records; ++i) {
    offsets.push_back(writer->current_segment_bytes());
    EXPECT_TRUE(
        writer->Append(LogRecord::InsertSegment(first_sid + i, "<t/>", 0))
            .ok());
  }
  return offsets;
}

std::unique_ptr<DirectoryReader> OpenReader(const std::string& dir) {
  auto reader = DirectoryReader::Open(dir);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(reader).ValueOrDie();
}

TEST(DirectoryReaderTest, ListsOnceAndClassifiesNames) {
  const std::string dir = FreshDir("list");
  WriteSegment(dir, 2, 1, 1);
  WriteSegment(dir, 1, 1, 1);
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + SnapshotFileName(1), "x").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/notes.txt", "hello").ok());
  auto reader = OpenReader(dir);
  EXPECT_EQ(reader->segments(), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(reader->snapshots(), (std::vector<uint64_t>{1}));
  EXPECT_EQ(reader->other_files(), (std::vector<std::string>{"notes.txt"}));
}

// Only the spelling WalSegmentFileName produces names a segment: a stray
// "wal-1.log" used to parse as segment 1, and replay then failed to open
// "wal-000001.log" with NotFound.
TEST(DirectoryReaderTest, NonCanonicalNamesAreOtherFiles) {
  const std::string dir = FreshDir("noncanonical");
  for (const char* name : {"wal-1.log", "wal-0000001.log", "snapshot-02.bin"}) {
    ASSERT_TRUE(WriteFileAtomic(dir + "/" + name, "").ok());
  }
  auto reader = OpenReader(dir);
  EXPECT_TRUE(reader->segments().empty());
  EXPECT_TRUE(reader->snapshots().empty());
  EXPECT_EQ(reader->other_files().size(), 3u);
  auto recovered = RecoverDatabase(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.ValueOrDie().next_wal_index, 1u);
}

TEST(DirectoryReaderTest, BaseIsNewestLoadableSnapshotAndChainFollowsIt) {
  const std::string dir = FreshDir("base");
  LazyDatabase empty;
  ASSERT_TRUE(SaveSnapshot(empty, dir + "/" + SnapshotFileName(1)).ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/" + SnapshotFileName(3), "junk").ok());
  WriteSegment(dir, 1, 1, 1);  // covered by snapshot 1
  WriteSegment(dir, 2, 1, 1);
  WriteSegment(dir, 3, 2, 1);
  WriteSegment(dir, 5, 3, 1);  // past the gap at 4
  auto reader = OpenReader(dir);
  auto db = reader->LoadBase({});
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(reader->base_index(), 1u);
  ASSERT_EQ(reader->unloadable_snapshots().size(), 1u);
  EXPECT_EQ(reader->unloadable_snapshots()[0].first, 3u);
  EXPECT_FALSE(reader->unloadable_snapshots()[0].second.ok());
  EXPECT_EQ(reader->chain(), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(reader->orphans(), (std::vector<uint64_t>{5}));
}

TEST(DirectoryReaderTest, StreamYieldsPositionsAndEndsCleanly) {
  const std::string dir = FreshDir("stream");
  const std::vector<uint64_t> first = WriteSegment(dir, 1, 1, 2);
  const std::vector<uint64_t> second = WriteSegment(dir, 2, 3, 1);
  auto reader = OpenReader(dir);
  ASSERT_TRUE(reader->LoadBase({}).ok());
  std::vector<std::pair<uint64_t, uint64_t>> seen;
  ChainRecord record;
  while (reader->Next(&record).ValueOrDie()) {
    seen.emplace_back(record.segment, record.frame_offset);
  }
  EXPECT_EQ(seen, (std::vector<std::pair<uint64_t, uint64_t>>{
                      {1, first[0]}, {1, first[1]}, {2, second[0]}}));
  EXPECT_EQ(reader->stop().kind, WalStopKind::kCleanEnd);
  // A stopped stream stays stopped.
  EXPECT_FALSE(reader->Next(&record).ValueOrDie());
}

TEST(DirectoryReaderTest, StopIsTypedAndPlaced) {
  const std::string dir = FreshDir("stop");
  WriteSegment(dir, 1, 1, 2);
  const std::vector<uint64_t> second = WriteSegment(dir, 2, 3, 2);
  const std::string path = dir + "/" + WalSegmentFileName(2);
  std::string data = ReadFileToString(path).ValueOrDie();
  data.resize(data.size() - 2);
  ASSERT_TRUE(WriteFileAtomic(path, data).ok());

  auto reader = OpenReader(dir);
  ASSERT_TRUE(reader->LoadBase({}).ok());
  ChainRecord record;
  uint64_t count = 0;
  while (reader->Next(&record).ValueOrDie()) ++count;
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(reader->stop().kind, WalStopKind::kTornTail);
  EXPECT_EQ(reader->stop().segment, 2u);
  EXPECT_EQ(reader->stop().valid_prefix_bytes, second[1]);
  EXPECT_TRUE(reader->stop().final_segment);
  EXPECT_FALSE(reader->stop().detail.ok());

  // The same tear mid-chain is not final.
  WriteSegment(dir, 3, 5, 1);
  auto longer = OpenReader(dir);
  ASSERT_TRUE(longer->LoadBase({}).ok());
  while (longer->Next(&record).ValueOrDie()) {
  }
  EXPECT_EQ(longer->stop().kind, WalStopKind::kTornTail);
  EXPECT_FALSE(longer->stop().final_segment);
}

TEST(DirectoryReaderTest, LoadBaseAgainRestartsTheStream) {
  const std::string dir = FreshDir("restart");
  WriteSegment(dir, 1, 1, 3);
  auto reader = OpenReader(dir);
  ASSERT_TRUE(reader->LoadBase({}).ok());
  ChainRecord record;
  ASSERT_TRUE(reader->Next(&record).ValueOrDie());
  ASSERT_TRUE(reader->Next(&record).ValueOrDie());
  auto again = reader->LoadBase({});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie()->Stats().num_segments, 0u);
  uint64_t count = 0;
  while (reader->Next(&record).ValueOrDie()) ++count;
  EXPECT_EQ(count, 3u);
}

}  // namespace
}  // namespace lazyxml
