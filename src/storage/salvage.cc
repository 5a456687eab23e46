#include "storage/salvage.h"

#include <sstream>
#include <vector>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/strings.h"
#include "storage/directory_reader.h"
#include "storage/wal_layout.h"

namespace lazyxml {

namespace {

std::string JsonEscape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Moves `a.file` into the quarantine subdirectory under a
/// collision-safe name and files `a` in the report.
Status Quarantine(const std::string& dir, DamagedArtifact a,
                  DamageReport* damage) {
  const std::string qdir = dir + "/quarantine";
  LAZYXML_RETURN_NOT_OK(CreateDirIfMissing(qdir));
  damage->quarantine_dir = qdir;
  a.quarantined_as = a.file;
  for (int attempt = 1; FileExists(qdir + "/" + a.quarantined_as);
       ++attempt) {
    a.quarantined_as = a.file + "." + std::to_string(attempt);
  }
  LAZYXML_RETURN_NOT_OK(
      RenameFile(dir + "/" + a.file, qdir + "/" + a.quarantined_as));
  damage->artifacts.push_back(std::move(a));
  return Status::OK();
}

/// Quarantines all of `<dir>/<name>`: every byte of it is dropped.
Status QuarantineWholeFile(const std::string& dir, const std::string& name,
                           std::string reason, std::string detail,
                           DamageReport* damage) {
  DamagedArtifact a;
  a.file = name;
  a.reason = std::move(reason);
  a.detail = std::move(detail);
  a.dropped_bytes = FileSize(dir + "/" + name).ValueOr(0);
  return Quarantine(dir, std::move(a), damage);
}

}  // namespace

std::string DamageReport::ToString() const {
  std::ostringstream os;
  os << "DamageReport: " << artifacts.size() << " damaged artifact(s), "
     << records_recovered << " record(s) recovered, " << records_dropped
     << " dropped";
  if (!quarantine_dir.empty()) os << ", quarantine at " << quarantine_dir;
  os << "\n";
  for (const DamagedArtifact& a : artifacts) {
    os << "  " << a.file << " [" << a.reason << "]";
    if (!a.quarantined_as.empty()) {
      os << " -> quarantine/" << a.quarantined_as;
    }
    if (!a.detail.empty()) os << ": " << a.detail;
    os << " (kept " << a.kept_bytes << " B, dropped " << a.dropped_bytes
       << " B / " << a.dropped_records << " record(s))\n";
  }
  return os.str();
}

std::string DamageReport::ToJson() const {
  std::ostringstream os;
  os << "{\"clean\":" << (clean() ? "true" : "false")
     << ",\"records_recovered\":" << records_recovered
     << ",\"records_dropped\":" << records_dropped << ",\"quarantine_dir\":\""
     << JsonEscape(quarantine_dir) << "\",\"artifacts\":[";
  for (size_t i = 0; i < artifacts.size(); ++i) {
    const DamagedArtifact& a = artifacts[i];
    if (i > 0) os << ",";
    os << "{\"file\":\"" << JsonEscape(a.file) << "\",\"quarantined_as\":\""
       << JsonEscape(a.quarantined_as) << "\",\"reason\":\""
       << JsonEscape(a.reason) << "\",\"detail\":\"" << JsonEscape(a.detail)
       << "\",\"kept_bytes\":" << a.kept_bytes
       << ",\"dropped_bytes\":" << a.dropped_bytes
       << ",\"dropped_records\":" << a.dropped_records << "}";
  }
  os << "]}";
  return os.str();
}

Result<SalvageResult> SalvageDatabase(const std::string& dir,
                                      const RecoveryOptions& options) {
  LAZYXML_RETURN_NOT_OK(CreateDirIfMissing(dir));
  LAZYXML_ASSIGN_OR_RETURN(std::unique_ptr<DirectoryReader> reader,
                           DirectoryReader::Open(dir));

  SalvageResult out;

  // ---- 1. Base: newest snapshot that loads; quarantine newer ones --------
  LAZYXML_ASSIGN_OR_RETURN(out.db, reader->LoadBase(options.db));
  const uint64_t snap_index = reader->base_index();
  out.stats.snapshot_index = snap_index;
  for (const auto& [index, status] : reader->unloadable_snapshots()) {
    LAZYXML_RETURN_NOT_OK(QuarantineWholeFile(dir, SnapshotFileName(index),
                                              "snapshot-unloadable",
                                              status.ToString(), &out.damage));
    LAZYXML_LOG(Warning) << "salvage: snapshot " << index
                         << " quarantined: " << status.ToString();
  }

  // ---- 2. Segments past a gap in the chain can never be replayed ---------
  const std::vector<uint64_t>& chain = reader->chain();
  for (uint64_t seg : reader->orphans()) {
    LAZYXML_RETURN_NOT_OK(QuarantineWholeFile(
        dir, WalSegmentFileName(seg), "wal-orphaned",
        StringPrintf("segment %llu follows a gap in the chain (expected %llu)",
                     static_cast<unsigned long long>(seg),
                     static_cast<unsigned long long>(
                         reader->next_segment_index())),
        &out.damage));
  }

  // ---- 3. Replay the chain; the first damaged or diverging record cuts ---
  uint64_t applied = 0;
  uint64_t cut_segment = 0;  // 0 = no cut
  DamagedArtifact cut;
  ChainRecord record;
  for (;;) {
    LAZYXML_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
    if (!more) break;
    if (cut_segment != 0) {
      ++cut.dropped_records;  // past the divergence: counted, not applied
      continue;
    }
    Status s = ApplyLogRecord(out.db.get(), record.record);
    if (s.ok()) {
      ++applied;
      continue;
    }
    cut_segment = record.segment;
    cut.reason = "wal-diverged";
    cut.detail = s.ToString();
    cut.kept_bytes = record.frame_offset;
    cut.dropped_records = 1;
  }
  const WalStop& stop = reader->stop();
  if (cut_segment != 0) {
    // The database may hold a partial effect of the failed op (e.g. an
    // insert that produced an unexpected sid), so rebuild cleanly: reload
    // the base and re-apply the verified prefix, which is deterministic.
    LAZYXML_ASSIGN_OR_RETURN(out.db, reader->LoadBase(options.db));
    for (uint64_t k = 0; k < applied; ++k) {
      LAZYXML_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
      if (!more) {
        return Status::Corruption("salvage: verified prefix vanished");
      }
      LAZYXML_RETURN_NOT_OK(
          ApplyLogRecord(out.db.get(), record.record)
              .WithContext("salvage: verified prefix failed to re-apply"));
    }
  } else if (stop.kind != WalStopKind::kCleanEnd) {
    cut_segment = stop.segment;
    cut.reason =
        stop.kind == WalStopKind::kTornTail ? "wal-torn" : "wal-corrupt";
    cut.detail = stop.detail.ToString();
    cut.kept_bytes = stop.valid_prefix_bytes;
  }
  out.damage.records_recovered = applied;
  out.stats.records_replayed = applied;
  out.stats.segments_replayed = chain.size();
  out.next_wal_index = reader->next_segment_index();

  // ---- 4. Prune the cut segment and quarantine the rest of the chain -----
  if (cut_segment != 0) {
    cut.file = WalSegmentFileName(cut_segment);
    LAZYXML_ASSIGN_OR_RETURN(std::string data,
                             ReadFileToString(dir + "/" + cut.file));
    cut.dropped_bytes = data.size() - cut.kept_bytes;
    out.damage.records_dropped = cut.dropped_records;
    LAZYXML_RETURN_NOT_OK(Quarantine(dir, cut, &out.damage));
    // Write the verified prefix back (possibly empty): the chain stays
    // contiguous and the next open sees a clean segment.
    LAZYXML_RETURN_NOT_OK(
        WriteFileAtomic(dir + "/" + cut.file,
                        std::string_view(data).substr(0, cut.kept_bytes)));
    // Later segments are beyond the cut: unreachable history.
    for (uint64_t seg : chain) {
      if (seg <= cut_segment) continue;
      LAZYXML_RETURN_NOT_OK(QuarantineWholeFile(
          dir, WalSegmentFileName(seg), "wal-unreachable",
          StringPrintf("history cut in segment %llu",
                       static_cast<unsigned long long>(cut_segment)),
          &out.damage));
    }
    out.next_wal_index = cut_segment + 1;
    out.stats.torn_tail = true;
    out.stats.torn_segment = cut_segment;
    out.stats.valid_prefix_bytes = cut.kept_bytes;
    out.stats.segments_replayed = cut_segment - snap_index;
  }

  LAZYXML_RETURN_NOT_OK(out.db->CheckInvariants().WithContext(
      "salvaged database failed validation"));
  LAZYXML_RETURN_NOT_OK(SyncDirectory(dir));
  return out;
}

}  // namespace lazyxml
