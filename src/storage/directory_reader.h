// DirectoryReader: the one reader of a database directory. Recovery
// (storage/recovery.h), salvage (storage/salvage.h) and the storage
// scrubber (check/storage_check.h) are policies over what it yields.
//
// It lists the directory once and picks the base: the newest snapshot
// that loads. The WAL after the base must form the contiguous chain
// base+1, base+2, ...; segments past a gap are orphans. (Preferring an
// older snapshot when the chain after the newest loadable one has a gap
// never helps: the missing index lies after the older snapshot too.)
// The chain is read as one stream of records, each with its segment and
// frame offset, that ends in a typed stop. The reader applies and
// writes nothing.

#ifndef LAZYXML_STORAGE_DIRECTORY_READER_H_
#define LAZYXML_STORAGE_DIRECTORY_READER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/lazy_database.h"
#include "storage/log_record.h"
#include "storage/wal_reader.h"

namespace lazyxml {

enum class WalStopKind { kCleanEnd, kTornTail, kCorrupt };

/// How the record stream ended (storage/wal_reader.h classifies damage).
struct WalStop {
  WalStopKind kind = WalStopKind::kCleanEnd;
  uint64_t segment = 0;             ///< the damaged segment; 0 at a clean end
  uint64_t valid_prefix_bytes = 0;  ///< its whole-frame bytes before damage
  bool final_segment = false;       ///< it is the chain's last segment
  Status detail;                    ///< what the damage is
};

struct ChainRecord {
  LogRecord record;
  uint64_t segment = 0;
  uint64_t frame_offset = 0;  ///< where the record's frame starts
};

class DirectoryReader {
 public:
  /// Lists `dir`, which must exist.
  static Result<std::unique_ptr<DirectoryReader>> Open(std::string dir);
  DirectoryReader(const DirectoryReader&) = delete;
  DirectoryReader& operator=(const DirectoryReader&) = delete;

  /// Snapshot and WAL segment indices on disk, ascending, and every
  /// other name in the directory.
  const std::vector<uint64_t>& snapshots() const { return snapshots_; }
  const std::vector<uint64_t>& segments() const { return segments_; }
  const std::vector<std::string>& other_files() const { return other_files_; }

  /// Loads the base (an empty database when no snapshot loads) and puts
  /// the stream at the chain's start. Calling it again reloads the same
  /// base and restarts the stream.
  Result<std::unique_ptr<LazyDatabase>> LoadBase(
      const LazyDatabaseOptions& options);

  // Valid after LoadBase.
  uint64_t base_index() const { return base_index_; }  ///< 0 = no snapshot
  /// Snapshots newer than the base, newest first, with their load error.
  const std::vector<std::pair<uint64_t, Status>>& unloadable_snapshots()
      const {
    return unloadable_snapshots_;
  }
  const std::vector<uint64_t>& chain() const { return chain_; }
  const std::vector<uint64_t>& orphans() const { return orphans_; }
  /// The index one past the chain (past the base when it is empty).
  uint64_t next_segment_index() const {
    return (chain_.empty() ? base_index_ : chain_.back()) + 1;
  }

  /// The next record of the chain, or false once the stream stopped
  /// (see stop()). Non-OK only when a segment file cannot be read.
  Result<bool> Next(ChainRecord* out);
  const WalStop& stop() const { return stop_; }

 private:
  explicit DirectoryReader(std::string dir) : dir_(std::move(dir)) {}

  std::string dir_;
  std::vector<uint64_t> snapshots_;
  std::vector<uint64_t> segments_;
  std::vector<std::string> other_files_;

  bool base_picked_ = false;
  uint64_t base_index_ = 0;
  std::vector<std::pair<uint64_t, Status>> unloadable_snapshots_;
  std::vector<uint64_t> chain_;
  std::vector<uint64_t> orphans_;

  std::string data_;  // the open segment; segment_reader_ views it
  std::optional<WalSegmentReader> segment_reader_;
  size_t segments_opened_ = 0;
  bool stopped_ = false;
  WalStop stop_;
};

}  // namespace lazyxml

#endif  // LAZYXML_STORAGE_DIRECTORY_READER_H_
