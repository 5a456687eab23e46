#include "storage/directory_reader.h"

#include <algorithm>

#include "common/file_io.h"
#include "core/snapshot.h"
#include "storage/wal_layout.h"

namespace lazyxml {

Result<std::unique_ptr<DirectoryReader>> DirectoryReader::Open(
    std::string dir) {
  LAZYXML_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           ListDirectory(dir));
  std::unique_ptr<DirectoryReader> reader(new DirectoryReader(std::move(dir)));
  for (std::string& name : names) {
    if (auto idx = ParseWalSegmentFileName(name)) {
      reader->segments_.push_back(*idx);
    } else if (auto idx = ParseSnapshotFileName(name)) {
      reader->snapshots_.push_back(*idx);
    } else {
      reader->other_files_.push_back(std::move(name));
    }
  }
  std::sort(reader->segments_.begin(), reader->segments_.end());
  std::sort(reader->snapshots_.begin(), reader->snapshots_.end());
  return reader;
}

Result<std::unique_ptr<LazyDatabase>> DirectoryReader::LoadBase(
    const LazyDatabaseOptions& options) {
  segment_reader_.reset();
  segments_opened_ = 0;
  stopped_ = false;
  stop_ = WalStop();
  if (base_picked_) {
    if (base_index_ == 0) return std::make_unique<LazyDatabase>(options);
    return LoadSnapshot(dir_ + "/" + SnapshotFileName(base_index_), options);
  }
  base_picked_ = true;
  std::unique_ptr<LazyDatabase> db;
  for (auto it = snapshots_.rbegin(); it != snapshots_.rend() && !db; ++it) {
    auto loaded = LoadSnapshot(dir_ + "/" + SnapshotFileName(*it), options);
    if (loaded.ok()) {
      db = std::move(loaded).ValueOrDie();
      base_index_ = *it;
    } else {
      unloadable_snapshots_.emplace_back(*it, loaded.status());
    }
  }
  if (!db) db = std::make_unique<LazyDatabase>(options);

  for (uint64_t seg : segments_) {
    if (seg <= base_index_) continue;  // covered: a checkpoint leftover
    const bool extends_chain =
        orphans_.empty() && seg == base_index_ + chain_.size() + 1;
    (extends_chain ? chain_ : orphans_).push_back(seg);
  }
  return db;
}

Result<bool> DirectoryReader::Next(ChainRecord* out) {
  while (!stopped_) {
    if (!segment_reader_) {
      if (segments_opened_ == chain_.size()) {
        stopped_ = true;  // clean end
        break;
      }
      const std::string name = WalSegmentFileName(chain_[segments_opened_]);
      LAZYXML_ASSIGN_OR_RETURN(data_, ReadFileToString(dir_ + "/" + name));
      segment_reader_.emplace(data_);
      ++segments_opened_;
    }
    const uint64_t segment = chain_[segments_opened_ - 1];
    const uint64_t frame_offset = segment_reader_->valid_prefix_bytes();
    Status detail;
    const WalReadOutcome outcome = segment_reader_->Next(&out->record, &detail);
    if (outcome == WalReadOutcome::kRecord) {
      out->segment = segment;
      out->frame_offset = frame_offset;
      return true;
    }
    if (outcome == WalReadOutcome::kEnd) {
      segment_reader_.reset();
      continue;
    }
    stopped_ = true;
    stop_.kind = outcome == WalReadOutcome::kTornTail ? WalStopKind::kTornTail
                                                      : WalStopKind::kCorrupt;
    stop_.segment = segment;
    stop_.valid_prefix_bytes = frame_offset;
    stop_.final_segment = segments_opened_ == chain_.size();
    stop_.detail = std::move(detail);
  }
  return false;
}

}  // namespace lazyxml
