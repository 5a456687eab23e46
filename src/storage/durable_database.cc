#include "storage/durable_database.h"

#include "common/file_io.h"
#include "core/snapshot.h"
#include "storage/wal_layout.h"

namespace lazyxml {

Result<std::unique_ptr<DurableLazyDatabase>> DurableLazyDatabase::Open(
    const std::string& dir, const DurableOptions& options) {
  RecoveryOptions recovery;
  recovery.db = options.db;
  recovery.strict = options.open_policy == OpenPolicy::kStrict;
  DamageReport damage;
  std::unique_ptr<LazyDatabase> db;
  RecoveryStats stats;
  uint64_t next_wal_index = 1;
  auto recovered = RecoverDatabase(dir, recovery);
  if (recovered.ok()) {
    RecoveredDatabase r = std::move(recovered).ValueOrDie();
    db = std::move(r.db);
    stats = r.stats;
    next_wal_index = r.next_wal_index;
  } else if (options.open_policy == OpenPolicy::kBestEffort &&
             recovered.status().IsCorruption()) {
    // Environmental failures (IOError) still propagate: salvage repairs
    // data damage, not a broken filesystem.
    LAZYXML_ASSIGN_OR_RETURN(SalvageResult salvaged,
                             SalvageDatabase(dir, recovery));
    db = std::move(salvaged.db);
    stats = salvaged.stats;
    next_wal_index = salvaged.next_wal_index;
    damage = std::move(salvaged.damage);
  } else {
    return recovered.status();
  }
  LAZYXML_ASSIGN_OR_RETURN(
      std::unique_ptr<WalWriter> wal,
      WalWriter::Open(dir, next_wal_index, options.wal));
  auto out = std::unique_ptr<DurableLazyDatabase>(new DurableLazyDatabase(
      dir, options, std::move(db), std::move(wal), stats));
  out->damage_report_ = std::move(damage);
  return out;
}

DurableLazyDatabase::DurableLazyDatabase(std::string dir,
                                         DurableOptions options,
                                         std::unique_ptr<LazyDatabase> db,
                                         std::unique_ptr<WalWriter> wal,
                                         RecoveryStats recovery_stats)
    : dir_(std::move(dir)),
      options_(options),
      db_(std::move(db)),
      wal_(std::move(wal)),
      commit_queue_(wal_.get()),
      recovery_stats_(recovery_stats) {
  db_->set_update_capture(this);
}

DurableLazyDatabase::~DurableLazyDatabase() {
  db_->set_update_capture(nullptr);
}

Status DurableLazyDatabase::Checkpoint() {
  // LS snapshots require a frozen log; journal the freeze point so a
  // crash right after the rotation still replays deterministically.
  if (db_->update_log().mode() == LogMode::kLazyStatic) {
    LAZYXML_RETURN_NOT_OK(Freeze());
  }
  // Rotate first: the snapshot then covers segments [1, K] exactly, and
  // records appended after this call land in K+1, beyond its coverage.
  const uint64_t covered = wal_->current_segment();
  LAZYXML_RETURN_NOT_OK(wal_->Rotate());

  LAZYXML_ASSIGN_OR_RETURN(std::string blob, SerializeDatabase(*db_));
  LAZYXML_RETURN_NOT_OK(
      WriteFileAtomic(dir_ + "/" + SnapshotFileName(covered), blob)
          .WithContext("writing checkpoint snapshot"));

  // The snapshot is durable; everything it covers is now garbage (WAL
  // segments <= covered, snapshots < covered, stray atomic-write temp
  // files). Recovery ignores all of these, so a crash mid-truncation
  // only wastes space.
  LAZYXML_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           ListDirectory(dir_));
  for (const std::string& name : names) {
    bool obsolete = false;
    if (auto seg = ParseWalSegmentFileName(name)) {
      obsolete = *seg <= covered;
    } else if (auto snap = ParseSnapshotFileName(name)) {
      obsolete = *snap < covered;
    } else {
      obsolete = name.size() > 4 &&
                 name.compare(name.size() - 4, 4, ".tmp") == 0;
    }
    if (obsolete) {
      LAZYXML_RETURN_NOT_OK(RemoveFileIfExists(dir_ + "/" + name));
    }
  }
  return SyncDirectory(dir_);
}

Status DurableLazyDatabase::Emit(LogRecord record) {
  if (batching_) {
    // Inside an ApplyBatch: defer to the OnBatchEnd group commit so the
    // whole batch pays one buffered write + one policy sync.
    pending_.push_back(std::move(record));
    return Status::OK();
  }
  return wal_->Append(record);
}

Status DurableLazyDatabase::OnInsertSegment(SegmentId sid,
                                            std::string_view text,
                                            uint64_t gp) {
  return Emit(LogRecord::InsertSegment(sid, text, gp));
}

Status DurableLazyDatabase::OnRemoveRange(uint64_t gp, uint64_t length) {
  return Emit(LogRecord::RemoveRange(gp, length));
}

Status DurableLazyDatabase::OnCollapseSubtree(SegmentId old_sid,
                                              SegmentId new_sid) {
  return Emit(LogRecord::CollapseSubtree(old_sid, new_sid));
}

Status DurableLazyDatabase::OnFreeze() { return Emit(LogRecord::Freeze()); }

Status DurableLazyDatabase::OnBatchBegin(size_t size) {
  batching_ = true;
  pending_.clear();
  pending_.reserve(size);
  return Status::OK();
}

Status DurableLazyDatabase::OnBatchEnd() {
  batching_ = false;
  if (pending_.empty()) return Status::OK();
  // Also called on the error path of ApplyBatch: the records of the
  // applied prefix are flushed so disk state matches memory state.
  Status s = commit_queue_.Commit(std::move(pending_));
  pending_ = std::vector<LogRecord>();
  return s;
}

}  // namespace lazyxml
