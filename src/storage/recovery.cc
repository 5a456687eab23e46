#include "storage/recovery.h"

#include "common/file_io.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/directory_reader.h"
#include "storage/wal_layout.h"

namespace lazyxml {

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
  LAZYXML_ASSIGN_OR_RETURN(std::unique_ptr<DirectoryReader> reader,
                           DirectoryReader::Open(dir));

  RecoveredDatabase out;
  LAZYXML_ASSIGN_OR_RETURN(out.db, reader->LoadBase(options.db));
  out.stats.snapshot_index = reader->base_index();
  for (const auto& [index, status] : reader->unloadable_snapshots()) {
    LAZYXML_LOG(Warning) << "snapshot " << index
                         << " unusable: " << status.ToString();
  }
  if (reader->base_index() == 0 && !reader->snapshots().empty()) {
    // Snapshots exist but none loads: starting empty would silently drop
    // data.
    return Status::Corruption(
        "no usable snapshot: " +
        reader->unloadable_snapshots().front().second.ToString());
  }
  if (!reader->orphans().empty()) {
    return Status::Corruption(StringPrintf(
        "WAL segments after snapshot %llu are not contiguous: segment %llu "
        "follows a gap",
        static_cast<unsigned long long>(reader->base_index()),
        static_cast<unsigned long long>(reader->orphans().front())));
  }

  ChainRecord record;
  for (;;) {
    LAZYXML_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
    if (!more) break;
    ++out.stats.records_replayed;
    Status applied = ApplyLogRecord(out.db.get(), record.record);
    if (!applied.ok()) {
      return applied.WithContext(StringPrintf(
          "segment %llu offset %llu",
          static_cast<unsigned long long>(record.segment),
          static_cast<unsigned long long>(record.frame_offset)));
    }
  }
  const WalStop& stop = reader->stop();
  if (stop.kind != WalStopKind::kCleanEnd) {
    // Damage. Tolerable only as a torn tail of the final segment.
    if (stop.kind != WalStopKind::kTornTail || !stop.final_segment ||
        options.strict) {
      return stop.detail.WithContext(
          StringPrintf("WAL segment %llu unrecoverable",
                       static_cast<unsigned long long>(stop.segment)));
    }
    out.stats.torn_tail = true;
    out.stats.torn_segment = stop.segment;
    out.stats.valid_prefix_bytes = stop.valid_prefix_bytes;
    LAZYXML_LOG(Warning) << "WAL tail truncated at segment " << stop.segment
                         << " offset " << stop.valid_prefix_bytes << ": "
                         << stop.detail.ToString();
    // Repair the tear on disk. The writer will start a segment after
    // this one, making it non-final — where leftover damage would
    // (rightly) read as Corruption on the next recovery.
    LAZYXML_RETURN_NOT_OK(
        TruncateFile(dir + "/" + WalSegmentFileName(stop.segment),
                     stop.valid_prefix_bytes)
            .WithContext("repairing torn WAL tail"));
  }
  // Success means every chain segment was read (a tolerated tear is in
  // the final one).
  out.stats.segments_replayed = reader->chain().size();
  // Registry mirror of RecoveryStats (the struct stays the API).
  LAZYXML_METRIC_COUNTER(records_counter, "recovery.records_replayed");
  LAZYXML_METRIC_COUNTER(segments_counter, "recovery.segments_replayed");
  LAZYXML_METRIC_COUNTER(torn_counter, "recovery.torn_tails");
  records_counter.Add(out.stats.records_replayed);
  segments_counter.Add(out.stats.segments_replayed);
  if (out.stats.torn_tail) torn_counter.Increment();

  out.next_wal_index = reader->next_segment_index();
  LAZYXML_RETURN_NOT_OK(out.db->CheckInvariants().WithContext(
      "recovered database failed validation"));
  return out;
}

}  // namespace lazyxml
