// Salvage: best-effort recovery of a damaged database directory.
//
// Where storage/recovery.h refuses (Corruption) when a snapshot will not
// load or a WAL segment is damaged before its end, SalvageDatabase opens
// with the *maximal verified prefix* of the logical history instead:
//
//  1. the newest snapshot that loads is the base; unloadable newer
//     snapshots are quarantined;
//  2. the contiguous WAL chain after the base is replayed record by
//     record; segments past a gap in it are quarantined as orphaned. The
//     first damaged or diverging frame cuts the history there — the
//     damaged segment is quarantined, its verified prefix is written back
//     in place (possibly as an empty file, keeping the segment chain
//     contiguous for the next open), and every later segment is
//     quarantined as unreachable;
//  3. the outcome is described by a machine-readable DamageReport rather
//     than a refusal or a silent truncation.
//
// Base and chain come from storage/directory_reader.h, the reader
// recovery and the scrubber use, so the cut is where the scrubber's
// replay stops.
//
// Quarantined files move into `<dir>/quarantine/` (collision-safe names),
// so no byte of the damaged store is destroyed — a deeper forensic pass
// can still look at them.

#ifndef LAZYXML_STORAGE_SALVAGE_H_
#define LAZYXML_STORAGE_SALVAGE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/lazy_database.h"
#include "storage/recovery.h"

namespace lazyxml {

/// One damaged artifact the salvage pass dealt with.
struct DamagedArtifact {
  /// Original file name within the database directory.
  std::string file;
  /// Name under quarantine/ the original bytes were moved to; empty when
  /// nothing was moved (e.g. a gap recorded without a file).
  std::string quarantined_as;
  /// Machine-readable reason: "snapshot-unloadable", "wal-torn",
  /// "wal-corrupt", "wal-diverged", "wal-unreachable", "wal-orphaned".
  std::string reason;
  /// Human-readable description with concrete offsets.
  std::string detail;
  /// Bytes of the artifact kept in the opened state (written back).
  uint64_t kept_bytes = 0;
  /// Bytes dropped from the opened state.
  uint64_t dropped_bytes = 0;
  /// Whole records dropped from the opened state.
  uint64_t dropped_records = 0;
};

/// Machine-readable outcome of a salvage pass.
struct DamageReport {
  std::vector<DamagedArtifact> artifacts;
  /// Absolute-ish path of the quarantine directory; empty when clean.
  std::string quarantine_dir;
  /// Records replayed into the opened database.
  uint64_t records_recovered = 0;
  /// Records visible on disk but dropped (damaged or past the cut).
  uint64_t records_dropped = 0;

  /// True iff the directory needed no repairs at all.
  bool clean() const { return artifacts.empty(); }

  std::string ToString() const;
  std::string ToJson() const;
};

/// What SalvageDatabase hands back.
struct SalvageResult {
  std::unique_ptr<LazyDatabase> db;
  RecoveryStats stats;
  /// First segment index the writer may use.
  uint64_t next_wal_index = 1;
  DamageReport damage;
};

/// Best-effort opens `dir` (see the file comment). Fails only on
/// environmental errors (IOError) or when even the verified prefix does
/// not form a consistent database — never on data damage per se.
Result<SalvageResult> SalvageDatabase(const std::string& dir,
                                      const RecoveryOptions& options = {});

}  // namespace lazyxml

#endif  // LAZYXML_STORAGE_SALVAGE_H_
