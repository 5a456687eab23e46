// Crash recovery: rebuilds a LazyDatabase from a database directory —
// the newest snapshot that loads, then replay of the WAL chain after it,
// both read through storage/directory_reader.h.
//
// Guarantees:
//  * Determinism: replaying the captured op stream against the restored
//    snapshot reproduces the exact pre-crash database (same sids, same
//    frozen coordinates, same query results); insert/collapse records
//    carry the sids the original run assigned and replay verifies them,
//    so silent divergence is impossible — a mismatch is Corruption.
//  * Torn-write safety: a damaged tail of the *final* segment (the only
//    place an interrupted append can land) ends replay cleanly at the
//    last whole record, and the tear is truncated away on disk so the
//    segment is whole again for the next recovery; damage anywhere else
//    — or anywhere at all under `strict` — fails with Corruption. Never
//    UB, never a crash.
//  * A missing snapshot with no WAL is an empty database, not an error.
//    An unloadable snapshot falls back to the newest older one that
//    loads; when none loads, that is Corruption. A gap in the WAL chain
//    after the base is Corruption too.

#ifndef LAZYXML_STORAGE_RECOVERY_H_
#define LAZYXML_STORAGE_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "core/lazy_database.h"
#include "core/snapshot.h"
#include "storage/log_record.h"

namespace lazyxml {

struct RecoveryOptions {
  /// Tuning for the rebuilt database; the maintenance mode comes from
  /// the snapshot when one exists.
  LazyDatabaseOptions db;
  /// When true, a torn tail is Corruption too (deployments that sync
  /// every record and want loss surfaced rather than truncated away).
  bool strict = false;
};

struct RecoveryStats {
  uint64_t snapshot_index = 0;  ///< 0 = recovered without a snapshot
  uint64_t segments_replayed = 0;
  uint64_t records_replayed = 0;
  bool torn_tail = false;       ///< replay stopped at a damaged tail
  uint64_t torn_segment = 0;    ///< segment index of the torn tail
  uint64_t valid_prefix_bytes = 0;  ///< usable bytes of that segment
};

struct RecoveredDatabase {
  std::unique_ptr<LazyDatabase> db;
  RecoveryStats stats;
  /// First segment index the writer may use (past everything on disk).
  uint64_t next_wal_index = 1;
};

/// Applies one replayed record to `db`, verifying sid determinism.
/// Exposed for tests; RecoverDatabase drives it.
Status ApplyLogRecord(LazyDatabase* db, const LogRecord& record);

/// Recovers from `dir`. See the file comment for semantics.
Result<RecoveredDatabase> RecoverDatabase(const std::string& dir,
                                          const RecoveryOptions& options = {});

}  // namespace lazyxml

#endif  // LAZYXML_STORAGE_RECOVERY_H_
