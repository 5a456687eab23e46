// DurableLazyDatabase: LazyDatabase + durability. Composes the in-memory
// lazy store with a write-ahead log (wal_writer.h) and the logical
// snapshot (core/snapshot.h) into a crash-safe database directory:
//
//   open        load newest valid snapshot, replay the WAL tail
//               (storage/recovery.h), start a fresh WAL segment;
//   update      apply in memory, then append one WAL record (via the
//               core/update_capture.h hook) and sync per policy — on OK
//               the update is acknowledged;
//   checkpoint  rotate the WAL, atomically persist a snapshot covering
//               everything before the rotation point, then truncate the
//               obsolete WAL segments and older snapshots.
//
// Every mutator is exactly LazyDatabase's mutator with the capture
// attached, and LS freeze points reach the WAL through the same hook
// (UpdateCapture::OnFreeze), so queries run on database() directly: they
// append a freeze marker only when they freeze an unfrozen LS log, and
// never touch the log otherwise.
//
// The class takes no locks. For concurrent use, wrap database() in a
// ConcurrentLazyDatabase (core/concurrent_database.h) and make every
// call through that wrapper, as the server does (server/engine.h): the
// WAL appends then happen inside its exclusive sections. Checkpoint and
// the scrubber's Check(DurableLazyDatabase) need that wrapper's
// exclusive lock (WithExclusive).

#ifndef LAZYXML_STORAGE_DURABLE_DATABASE_H_
#define LAZYXML_STORAGE_DURABLE_DATABASE_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "core/lazy_database.h"
#include "core/update_capture.h"
#include "storage/group_commit.h"
#include "storage/recovery.h"
#include "storage/salvage.h"
#include "storage/wal_writer.h"

namespace lazyxml {

/// How Open treats a damaged directory.
enum class OpenPolicy {
  /// A torn tail of the final WAL segment (an interrupted append) is
  /// truncated away on disk; any other damage is Corruption.
  kRepairTornTail,
  /// Any damage, a torn tail included, is Corruption; nothing on disk
  /// is altered (deployments that sync every record and want loss
  /// surfaced rather than truncated away).
  kStrict,
  /// As kRepairTornTail, but on Corruption fall back to salvage
  /// (storage/salvage.h): quarantine the damage, open the maximal
  /// verified prefix, and surface what happened in damage_report().
  kBestEffort,
};

struct DurableOptions {
  /// In-memory database tuning; the mode of an existing directory comes
  /// from its snapshot.
  LazyDatabaseOptions db;
  WalWriterOptions wal;
  OpenPolicy open_policy = OpenPolicy::kRepairTornTail;
};

class DurableLazyDatabase : private UpdateCapture {
 public:
  /// Opens (or creates) the database directory `dir`.
  static Result<std::unique_ptr<DurableLazyDatabase>> Open(
      const std::string& dir, const DurableOptions& options = {});

  ~DurableLazyDatabase() override;
  DurableLazyDatabase(const DurableLazyDatabase&) = delete;
  DurableLazyDatabase& operator=(const DurableLazyDatabase&) = delete;

  // -- Updates: in-memory apply + WAL append ----------------------------------

  Result<SegmentId> InsertSegment(std::string_view text, uint64_t gp) {
    return db_->InsertSegment(text, gp);
  }
  Status RemoveSegment(uint64_t gp, uint64_t length) {
    return db_->RemoveSegment(gp, length);
  }

  /// Batched ingestion: the in-memory apply runs through
  /// LazyDatabase::ApplyBatch, and the captured records are buffered
  /// between the OnBatchBegin/OnBatchEnd hooks and committed as ONE
  /// WAL batch — one buffered write, one policy sync (kEveryRecord pays
  /// one fdatasync per batch instead of per op). A crash mid-commit
  /// tears at most the frame tail; recovery truncates to the last whole
  /// frame and replays a strict prefix of the batch (prefix durability,
  /// docs/WAL_FORMAT.md).
  Result<BatchStats> ApplyBatch(std::span<const UpdateOp> ops) {
    return db_->ApplyBatch(ops);
  }
  /// Stats-out form: `*stats_out` covers exactly the applied prefix even
  /// when the batch fails (core/lazy_database.h).
  Status ApplyBatch(std::span<const UpdateOp> ops, BatchStats* stats_out) {
    return db_->ApplyBatch(ops, stats_out);
  }
  Result<SegmentId> CollapseSubtree(SegmentId sid) {
    return db_->CollapseSubtree(sid);
  }
  Status CompactAll() { return db_->CompactAll(); }

  /// LazyDatabase::Freeze: in LS mode an unfrozen log is frozen and a
  /// freeze marker journaled, so replay reproduces the freeze point.
  Status Freeze() { return db_->Freeze(); }

  // -- Durability control ------------------------------------------------------

  /// Forces every appended record to stable storage (the manual
  /// counterpart of WalSyncPolicy::kEveryRecord).
  Status Sync() { return wal_->Sync(); }

  /// Persists a snapshot and truncates the WAL it covers. On return the
  /// directory recovers to exactly the current state without replaying
  /// pre-checkpoint records.
  Status Checkpoint();

  /// The wrapped in-memory database (queries, stats, invariants). Its
  /// update capture is attached for the facade's lifetime, so updates
  /// and LS freezes made through it are journaled too.
  LazyDatabase& database() { return *db_; }
  const LazyDatabase& database() const { return *db_; }

  /// What recovery did when this handle was opened.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  /// What salvage did when this handle was opened with
  /// OpenPolicy::kBestEffort; clean() when the strict path sufficed.
  const DamageReport& damage_report() const { return damage_report_; }

  /// The live WAL writer (introspection: segment index, record counts).
  const WalWriter& wal() const { return *wal_; }

  /// The group-commit queue draining into the WAL. ApplyBatch flushes
  /// its buffered records through it; callers that serialize the
  /// in-memory apply externally but let WAL commits overlap can Commit
  /// concurrently and share one fsync per group (kEveryRecord). Records
  /// committed here must come from the capture stream — arbitrary
  /// records would diverge replay from the in-memory state.
  GroupCommitQueue& commit_queue() { return commit_queue_; }

  /// The database directory this handle was opened on.
  const std::string& dir() const { return dir_; }

  /// The options this handle was opened with.
  const DurableOptions& options() const { return options_; }

 private:
  DurableLazyDatabase(std::string dir, DurableOptions options,
                      std::unique_ptr<LazyDatabase> db,
                      std::unique_ptr<WalWriter> wal,
                      RecoveryStats recovery_stats);

  // UpdateCapture: one WAL record per captured primitive. Between
  // OnBatchBegin and OnBatchEnd records are buffered and committed as
  // one group; outside a batch each record is appended (and synced, per
  // policy) individually, as before.
  Status OnInsertSegment(SegmentId sid, std::string_view text,
                         uint64_t gp) override;
  Status OnRemoveRange(uint64_t gp, uint64_t length) override;
  Status OnCollapseSubtree(SegmentId old_sid, SegmentId new_sid) override;
  Status OnFreeze() override;
  Status OnBatchBegin(size_t size) override;
  Status OnBatchEnd() override;

  Status Emit(LogRecord record);

  std::string dir_;
  DurableOptions options_;
  std::unique_ptr<LazyDatabase> db_;
  std::unique_ptr<WalWriter> wal_;
  GroupCommitQueue commit_queue_;
  bool batching_ = false;
  std::vector<LogRecord> pending_;
  RecoveryStats recovery_stats_;
  DamageReport damage_report_;
};

}  // namespace lazyxml

#endif  // LAZYXML_STORAGE_DURABLE_DATABASE_H_
