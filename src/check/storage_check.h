// Storage invariants for the consistency scrubber: offline scrub of a
// database directory (snapshot loadability, WAL chain contiguity, frame
// integrity, replay convergence) and the WAL/snapshot cross-consistency
// check — recovering the on-disk state into a scratch database must
// reproduce the live in-memory database exactly.
//
// Unlike storage/recovery.h (which truncates torn tails on disk) and
// storage/salvage.h (which quarantines damage), everything here is
// strictly read-only: a scrub never modifies the directory it inspects.

#ifndef LAZYXML_CHECK_STORAGE_CHECK_H_
#define LAZYXML_CHECK_STORAGE_CHECK_H_

#include <cstdint>
#include <string>

#include "check/check_report.h"
#include "common/result.h"
#include "core/lazy_database.h"
#include "storage/durable_database.h"

namespace lazyxml {
namespace check {

/// Knobs for the offline directory scrub.
struct StorageCheckOptions {
  /// Tuning for the scratch replay database; the maintenance mode of an
  /// existing directory comes from its snapshot.
  LazyDatabaseOptions db;
  /// Also run the full in-memory scrub (CheckDatabase) on the state the
  /// directory replays into.
  bool deep_check_replayed_state = true;
};

/// Reports every way two databases' logical states differ (ER-tree
/// geometry, element records, tag dictionary, tag-list, sid counter).
/// Used by the WAL/snapshot cross-check with `expected` = the state
/// recovered from disk and `actual` = the live database; exposed for
/// tests. Purely observational.
void CompareDatabaseStates(const LazyDatabase& expected,
                           const LazyDatabase& actual, CheckReport* report);

/// How far a scrub's replay of the WAL chain got.
struct DirectoryReplay {
  /// Records applied to the scratch database.
  uint64_t records_replayed = 0;
  /// Where replay stopped: the damaged or diverging segment and its
  /// bytes before the damage or the diverging record's frame. Segment 0
  /// means the chain replayed to a clean end.
  uint64_t stop_segment = 0;
  uint64_t stop_bytes = 0;
};

/// Offline scrub of database directory `dir` without modifying it. It
/// reads the directory through storage/directory_reader.h, so by
/// recovery's rule:
///  - file inventory (unknown files, leftover temp files, quarantine),
///  - every snapshot must deserialize; the newest one anchors replay,
///  - the WAL segment chain after the anchor must be contiguous,
///  - every frame must decode (a torn tail is only tolerable, as a
///    warning, at the very end of the final segment),
///  - the decoded records must replay cleanly onto the anchor snapshot,
///  - optionally, the replayed state must pass the full in-memory scrub.
/// The Result is non-OK only for environmental failures (e.g. the
/// directory is unreadable); damage is reported as findings. When
/// `replay` is given it receives how far the replay got.
Result<CheckReport> CheckDatabaseDirectory(
    const std::string& dir, const StorageCheckOptions& options = {},
    DirectoryReplay* replay = nullptr);

/// WAL/snapshot cross-consistency for a live durable handle: scrubs the
/// directory (as above), then recovers the on-disk state into a scratch
/// database and requires it to be identical to `db.database()`. Any
/// divergence means the log on disk would not reproduce the state being
/// served — the worst kind of silent durability bug.
Result<CheckReport> CheckDurableDatabase(const DurableLazyDatabase& db);

}  // namespace check
}  // namespace lazyxml

#endif  // LAZYXML_CHECK_STORAGE_CHECK_H_
