#include "storage/recovery.h"

#include <algorithm>
#include <vector>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/wal_layout.h"
#include "storage/wal_reader.h"

namespace lazyxml {

namespace {

struct DirectoryContents {
  std::vector<uint64_t> wal_segments;  // ascending
  std::vector<uint64_t> snapshots;     // ascending
};

Result<DirectoryContents> ScanDirectory(const std::string& dir) {
  LAZYXML_ASSIGN_OR_RETURN(std::vector<std::string> names,
                           ListDirectory(dir));
  DirectoryContents out;
  for (const std::string& name : names) {
    if (auto idx = ParseWalSegmentFileName(name)) {
      out.wal_segments.push_back(*idx);
    } else if (auto idx = ParseSnapshotFileName(name)) {
      out.snapshots.push_back(*idx);
    }
  }
  std::sort(out.wal_segments.begin(), out.wal_segments.end());
  std::sort(out.snapshots.begin(), out.snapshots.end());
  return out;
}

}  // namespace

Status ApplyLogRecord(LazyDatabase* db, const LogRecord& record) {
  switch (record.type) {
    case LogRecordType::kInsertSegment: {
      auto sid = db->InsertSegment(record.text, record.gp);
      if (!sid.ok()) {
        return Status::Corruption(
            "WAL replay diverged; insert failed: " + sid.status().ToString());
      }
      if (sid.ValueOrDie() != record.sid) {
        return Status::Corruption(StringPrintf(
            "WAL replay diverged: insert produced sid %llu, log says %llu",
            static_cast<unsigned long long>(sid.ValueOrDie()),
            static_cast<unsigned long long>(record.sid)));
      }
      return Status::OK();
    }
    case LogRecordType::kRemoveRange: {
      Status s = db->RemoveSegment(record.gp, record.length);
      if (!s.ok()) {
        return Status::Corruption(
            "WAL replay diverged; remove failed: " + s.ToString());
      }
      return Status::OK();
    }
    case LogRecordType::kCollapseSubtree: {
      auto sid = db->CollapseSubtree(record.sid);
      if (!sid.ok()) {
        return Status::Corruption(
            "WAL replay diverged; collapse failed: " +
            sid.status().ToString());
      }
      if (sid.ValueOrDie() != record.new_sid) {
        return Status::Corruption(StringPrintf(
            "WAL replay diverged: collapse produced sid %llu, log says %llu",
            static_cast<unsigned long long>(sid.ValueOrDie()),
            static_cast<unsigned long long>(record.new_sid)));
      }
      return Status::OK();
    }
    case LogRecordType::kFreeze:
      return db->Freeze();  // capture detached: journals nothing
  }
  return Status::Corruption("unknown WAL record type in replay");
}

Result<RecoveredDatabase> RecoverDatabase(const std::string& dir,
                                          const RecoveryOptions& options) {
  obs::TraceSpan recovery_span("recovery.run");
  LAZYXML_METRIC_COUNTER(runs_counter, "recovery.runs");
  LAZYXML_METRIC_HISTOGRAM(replay_hist, "recovery.replay_us");
  runs_counter.Increment();
  obs::ScopedLatency replay_latency(replay_hist);
  LAZYXML_RETURN_NOT_OK(CreateDirIfMissing(dir));
  LAZYXML_ASSIGN_OR_RETURN(DirectoryContents contents, ScanDirectory(dir));

  RecoveredDatabase out;

  // 1. Newest snapshot that both loads and still has its WAL tail on
  //    disk. Checkpointing deletes WAL segments <= the snapshot index
  //    only after the snapshot is durable, so under crashes (not media
  //    damage) the newest snapshot always qualifies.
  Status snapshot_failure;  // best (newest) failure, reported if none load
  for (size_t i = contents.snapshots.size(); i-- > 0;) {
    const uint64_t snap_index = contents.snapshots[i];
    auto loaded = LoadSnapshot(dir + "/" + SnapshotFileName(snap_index),
                               options.db);
    if (!loaded.ok()) {
      if (snapshot_failure.ok()) snapshot_failure = loaded.status();
      LAZYXML_LOG(Warning) << "snapshot " << snap_index
                           << " unusable: " << loaded.status().ToString();
      continue;
    }
    // Coverage check: every existing segment in (snap_index, max] must
    // form a contiguous run starting at snap_index + 1 — replayable —
    // or there must be none newer than the snapshot.
    bool contiguous = true;
    uint64_t expected = snap_index + 1;
    for (uint64_t seg : contents.wal_segments) {
      if (seg <= snap_index) continue;  // covered; stale, ignored
      if (seg != expected) {
        contiguous = false;
        break;
      }
      ++expected;
    }
    if (!contiguous) {
      if (snapshot_failure.ok()) {
        snapshot_failure = Status::Corruption(StringPrintf(
            "WAL segments after snapshot %llu are not contiguous",
            static_cast<unsigned long long>(snap_index)));
      }
      continue;
    }
    out.db = std::move(loaded).ValueOrDie();
    out.stats.snapshot_index = snap_index;
    break;
  }
  if (out.db == nullptr) {
    if (!contents.snapshots.empty()) {
      // Snapshots exist but none is usable: starting empty would
      // silently drop data.
      return Status::Corruption("no usable snapshot: " +
                                snapshot_failure.ToString());
    }
    out.db = std::make_unique<LazyDatabase>(options.db);
    // Without a snapshot the whole WAL must be present from segment 1.
    uint64_t expected = 1;
    for (uint64_t seg : contents.wal_segments) {
      if (seg != expected++) {
        return Status::Corruption("WAL segments do not start at 1 or have "
                                  "gaps, and no snapshot covers them");
      }
    }
  }

  // 2. Replay segments newer than the snapshot, in order.
  const uint64_t max_segment =
      contents.wal_segments.empty() ? 0 : contents.wal_segments.back();
  for (uint64_t seg : contents.wal_segments) {
    if (seg <= out.stats.snapshot_index) continue;
    const bool final_segment = seg == max_segment;
    LAZYXML_ASSIGN_OR_RETURN(
        std::string data,
        ReadFileToString(dir + "/" + WalSegmentFileName(seg)));
    WalSegmentReader reader(data);
    LogRecord record;
    Status detail;
    for (;;) {
      const WalReadOutcome outcome = reader.Next(&record, &detail);
      if (outcome == WalReadOutcome::kEnd) break;
      if (outcome == WalReadOutcome::kRecord) {
        LAZYXML_RETURN_NOT_OK(
            ApplyLogRecord(out.db.get(), record)
                .WithContext(StringPrintf(
                    "segment %llu offset %llu",
                    static_cast<unsigned long long>(seg),
                    static_cast<unsigned long long>(
                        reader.valid_prefix_bytes()))));
        continue;
      }
      // Damage. Tolerable only as a torn tail of the final segment.
      if (outcome == WalReadOutcome::kTornTail && final_segment &&
          !options.strict) {
        out.stats.torn_tail = true;
        out.stats.torn_segment = seg;
        out.stats.valid_prefix_bytes = reader.valid_prefix_bytes();
        LAZYXML_LOG(Warning)
            << "WAL tail truncated at segment " << seg << " offset "
            << reader.valid_prefix_bytes() << ": " << detail.ToString();
        // Repair the tear on disk. The writer will start a segment after
        // this one, making it non-final — where leftover damage would
        // (rightly) read as Corruption on the next recovery.
        LAZYXML_RETURN_NOT_OK(
            TruncateFile(dir + "/" + WalSegmentFileName(seg),
                         reader.valid_prefix_bytes())
                .WithContext("repairing torn WAL tail"));
        break;
      }
      return detail.WithContext(
          StringPrintf("WAL segment %llu unrecoverable",
                       static_cast<unsigned long long>(seg)));
    }
    out.stats.records_replayed += reader.records_read();
    ++out.stats.segments_replayed;
  }
  // Registry mirror of RecoveryStats (the struct stays the API).
  LAZYXML_METRIC_COUNTER(records_counter, "recovery.records_replayed");
  LAZYXML_METRIC_COUNTER(segments_counter, "recovery.segments_replayed");
  LAZYXML_METRIC_COUNTER(torn_counter, "recovery.torn_tails");
  records_counter.Add(out.stats.records_replayed);
  segments_counter.Add(out.stats.segments_replayed);
  if (out.stats.torn_tail) torn_counter.Increment();

  out.next_wal_index = std::max(max_segment, out.stats.snapshot_index) + 1;
  LAZYXML_RETURN_NOT_OK(out.db->CheckInvariants().WithContext(
      "recovered database failed validation"));
  return out;
}

}  // namespace lazyxml
