#include "check/storage_check.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "check/database_check.h"
#include "common/file_io.h"
#include "core/snapshot.h"
#include "storage/directory_reader.h"
#include "storage/recovery.h"
#include "storage/wal_layout.h"

namespace lazyxml {
namespace check {
namespace {

/// Files the directory inventory: names that are neither snapshots nor
/// WAL segments.
void ReportInventory(const DirectoryReader& reader, CheckReport* report) {
  report->BumpObjectsScanned(reader.snapshots().size() +
                             reader.segments().size() +
                             reader.other_files().size());
  for (const std::string& name : reader.other_files()) {
    if (name == "quarantine") {
      report->AddInfo("storage", "quarantine-present",
                      "quarantine/ exists: a past salvage moved damage aside");
    } else if (name.size() > 4 &&
               name.compare(name.size() - 4, 4, ".tmp") == 0) {
      report->AddInfo("storage", "tmp-file",
                      "leftover atomic-write temp file: " + name);
    } else {
      report->AddWarning("storage", "unknown-file",
                         "unrecognized file in database directory: " + name);
    }
  }
  report->BumpChecksRun();
}

struct ReplayOutcome {
  /// The state the directory recovers to.
  std::unique_ptr<LazyDatabase> db;
  /// False when replay stopped on damage or divergence — the db then
  /// holds a prefix (or a partial op) and must not be compared against a
  /// live database or deep-checked as if it were the committed state.
  bool complete = true;
  DirectoryReplay summary;
};

/// Lists `dir` and replays it the way recovery does — base snapshot,
/// then the chain after it — into a scratch database, and verifies the
/// snapshots older than the base load too. Strictly read-only; every
/// anomaly becomes a finding.
Result<ReplayOutcome> ReplayDirectory(const std::string& dir,
                                      const LazyDatabaseOptions& db_options,
                                      CheckReport* report) {
  LAZYXML_ASSIGN_OR_RETURN(std::unique_ptr<DirectoryReader> reader,
                           DirectoryReader::Open(dir));
  ReportInventory(*reader, report);
  ReplayOutcome out;
  LAZYXML_ASSIGN_OR_RETURN(out.db, reader->LoadBase(db_options));
  const uint64_t base = reader->base_index();
  for (const auto& [index, status] : reader->unloadable_snapshots()) {
    // Damage on the newest snapshot: recovery would have to fall back.
    report->AddError("storage", "snapshot-unloadable",
                     SnapshotFileName(index) +
                         " does not load: " + status.ToString());
  }
  for (uint64_t index : reader->snapshots()) {
    if (index >= base) break;
    auto loaded = LoadSnapshot(dir + "/" + SnapshotFileName(index),
                               db_options);
    if (!loaded.ok()) {
      // An already superseded snapshot; only a fallback would miss it.
      report->AddWarning("storage", "snapshot-unloadable-old",
                         SnapshotFileName(index) + " does not load: " +
                             loaded.status().ToString());
    }
  }
  report->BumpChecksRun();

  for (uint64_t idx : reader->segments()) {
    if (idx > base) break;
    report->AddInfo("storage", "wal-covered-segment",
                    WalSegmentFileName(idx) +
                        " is fully covered by a snapshot (checkpoint "
                        "truncation did not finish)");
  }
  for (uint64_t idx : reader->orphans()) {
    std::ostringstream os;
    os << "WAL chain breaks: expected "
       << WalSegmentFileName(reader->next_segment_index())
       << " but the next segment on disk is " << WalSegmentFileName(idx);
    report->AddError("storage", "wal-chain-gap", os.str());
    report->AddWarning("storage", "wal-unreachable-segment",
                       WalSegmentFileName(idx) +
                           " lies beyond a chain gap and cannot be replayed");
    out.complete = false;
  }
  report->BumpChecksRun();

  ChainRecord record;
  bool diverged = false;
  for (;;) {
    LAZYXML_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
    if (!more) break;
    report->BumpObjectsScanned();
    Status applied = ApplyLogRecord(out.db.get(), record.record);
    if (!applied.ok()) {
      std::ostringstream os;
      os << "record at offset " << record.frame_offset << " of "
         << WalSegmentFileName(record.segment)
         << " does not replay onto the snapshot state: "
         << applied.ToString();
      report->AddError("storage", "wal-replay-divergence", os.str());
      out.summary.stop_segment = record.segment;
      out.summary.stop_bytes = record.frame_offset;
      out.complete = false;
      diverged = true;
      break;
    }
    ++out.summary.records_replayed;
  }
  const WalStop& stop = reader->stop();
  if (!diverged && stop.kind != WalStopKind::kCleanEnd) {
    out.summary.stop_segment = stop.segment;
    out.summary.stop_bytes = stop.valid_prefix_bytes;
    const bool torn = stop.kind == WalStopKind::kTornTail;
    std::ostringstream os;
    os << WalSegmentFileName(stop.segment)
       << (torn ? " has a torn tail" : " is corrupt") << " at offset "
       << stop.valid_prefix_bytes << ": " << stop.detail.ToString();
    if (torn && stop.final_segment) {
      // The one place an interrupted append can legitimately land.
      report->AddWarning("storage", "wal-torn-tail", os.str());
    } else {
      report->AddError("storage", torn ? "wal-torn-mid-chain" : "wal-corrupt",
                       os.str());
      out.complete = false;
    }
  }
  for (uint64_t idx : reader->chain()) {
    if (out.summary.stop_segment == 0 || idx <= out.summary.stop_segment) {
      continue;  // replayed, or no damage cut the chain
    }
    report->AddWarning("storage", "wal-unreachable-segment",
                       WalSegmentFileName(idx) +
                           " lies beyond damaged history and cannot be "
                           "replayed");
  }
  report->BumpChecksRun();
  return out;
}

std::string SegmentName(const SegmentNode& n) {
  std::ostringstream os;
  os << "segment " << n.sid;
  return os.str();
}

}  // namespace

void CompareDatabaseStates(const LazyDatabase& expected,
                           const LazyDatabase& actual, CheckReport* report) {
  const UpdateLog& elog = expected.update_log();
  const UpdateLog& alog = actual.update_log();

  if (elog.mode() != alog.mode()) {
    std::ostringstream os;
    os << "maintenance mode differs: disk state is " << LogModeName(elog.mode())
       << ", live state is " << LogModeName(alog.mode());
    report->AddError("storage", "state-mode", os.str());
  }
  if (elog.next_sid() != alog.next_sid()) {
    std::ostringstream os;
    os << "sid counter differs: disk state would assign " << elog.next_sid()
       << ", live state " << alog.next_sid();
    report->AddError("storage", "state-next-sid", os.str());
  }
  if (elog.super_document_length() != alog.super_document_length()) {
    std::ostringstream os;
    os << "super-document length differs: disk "
       << elog.super_document_length() << ", live "
       << alog.super_document_length();
    report->AddError("storage", "state-doc-length", os.str());
  }
  if (elog.num_segments() != alog.num_segments()) {
    std::ostringstream os;
    os << "segment count differs: disk " << elog.num_segments() << ", live "
       << alog.num_segments();
    report->AddError("storage", "state-segment-count", os.str());
  }

  elog.ForEachSegment([&](const SegmentNode& e) {
    report->BumpObjectsScanned();
    const SegmentNode* a = alog.NodeOf(e.sid);
    if (a == nullptr) {
      report->AddError("storage", "state-segment-missing",
                       SegmentName(e) + " exists on disk but not live", e.sid);
      return true;
    }
    if (e.gp != a->gp || e.l != a->l || e.lp != a->lp ||
        e.base_level != a->base_level) {
      std::ostringstream os;
      os << SegmentName(e) << " geometry differs: disk (gp=" << e.gp
         << ", l=" << e.l << ", lp=" << e.lp
         << ", base_level=" << e.base_level << ") vs live (gp=" << a->gp
         << ", l=" << a->l << ", lp=" << a->lp
         << ", base_level=" << a->base_level << ")";
      report->AddError("storage", "state-segment-geometry", os.str(), e.sid);
    }
    const SegmentId eparent = e.parent ? e.parent->sid : e.sid;
    const SegmentId aparent = a->parent ? a->parent->sid : a->sid;
    if (eparent != aparent || (e.parent == nullptr) != (a->parent == nullptr)) {
      report->AddError("storage", "state-segment-parent",
                       SegmentName(e) + " hangs under different parents",
                       e.sid);
    }
    auto child_sids = [](const SegmentNode& n) {
      std::vector<SegmentId> sids;
      sids.reserve(n.children.size());
      for (const SegmentNode* c : n.children) sids.push_back(c->sid);
      return sids;
    };
    if (child_sids(e) != child_sids(*a)) {
      report->AddError("storage", "state-segment-children",
                       SegmentName(e) + " has different child sequences",
                       e.sid);
    }
    auto gap_pairs = [](const SegmentNode& n) {
      std::vector<std::pair<uint64_t, uint64_t>> gaps;
      gaps.reserve(n.gaps.size());
      for (const FrozenGap& g : n.gaps) gaps.emplace_back(g.begin, g.end);
      return gaps;
    };
    if (gap_pairs(e) != gap_pairs(*a)) {
      report->AddError("storage", "state-segment-gaps",
                       SegmentName(e) + " has different frozen gaps", e.sid);
    }
    if (e.distinct_tags != a->distinct_tags) {
      report->AddError("storage", "state-segment-tags",
                       SegmentName(e) + " has different distinct-tag sets",
                       e.sid);
    }
    auto summary_rows = [](const SegmentNode& n) {
      std::vector<std::tuple<uint64_t, uint64_t, uint32_t, uint32_t>> rows;
      rows.reserve(n.summary.size());
      for (const NestingEntry& s : n.summary) {
        rows.emplace_back(s.start, s.end, s.parent, s.level);
      }
      return rows;
    };
    if (summary_rows(e) != summary_rows(*a)) {
      report->AddError("storage", "state-segment-summary",
                       SegmentName(e) + " has different nesting summaries",
                       e.sid);
    }
    return true;
  });
  alog.ForEachSegment([&](const SegmentNode& a) {
    if (elog.NodeOf(a.sid) == nullptr) {
      report->AddError("storage", "state-segment-extra",
                       SegmentName(a) + " exists live but not on disk", a.sid);
    }
    return true;
  });
  report->BumpChecksRun();

  // Element records arrive in key order from both sides, so the first
  // positional mismatch pinpoints the divergence; one finding is enough.
  auto collect_records = [](const LazyDatabase& db) {
    std::vector<ElementIndexRecord> records;
    records.reserve(db.element_index().size());
    db.element_index().ForEachRecord([&](const ElementIndexRecord& r) {
      records.push_back(r);
      return true;
    });
    return records;
  };
  const std::vector<ElementIndexRecord> erecs = collect_records(expected);
  const std::vector<ElementIndexRecord> arecs = collect_records(actual);
  report->BumpObjectsScanned(erecs.size());
  if (erecs.size() != arecs.size()) {
    std::ostringstream os;
    os << "element record count differs: disk " << erecs.size() << ", live "
       << arecs.size();
    report->AddError("storage", "state-record-count", os.str());
  }
  for (std::size_t i = 0; i < erecs.size() && i < arecs.size(); ++i) {
    const ElementIndexRecord& e = erecs[i];
    const ElementIndexRecord& a = arecs[i];
    if (e.tid != a.tid || e.sid != a.sid || e.start != a.start ||
        e.end != a.end || e.level != a.level) {
      std::ostringstream os;
      os << "element record " << i << " differs: disk (tid=" << e.tid
         << ", sid=" << e.sid << ", [" << e.start << ", " << e.end
         << "), level " << e.level << ") vs live (tid=" << a.tid
         << ", sid=" << a.sid << ", [" << a.start << ", " << a.end
         << "), level " << a.level << ")";
      report->AddError("storage", "state-record-mismatch", os.str(), e.sid);
      break;
    }
  }
  report->BumpChecksRun();

  const TagDict& edict = expected.tag_dict();
  const TagDict& adict = actual.tag_dict();
  if (edict.size() != adict.size()) {
    std::ostringstream os;
    os << "tag dictionary size differs: disk " << edict.size() << ", live "
       << adict.size();
    report->AddError("storage", "state-tag-dict", os.str());
  }
  for (TagId tid = 0; tid < edict.size() && tid < adict.size(); ++tid) {
    if (edict.Name(tid) != adict.Name(tid)) {
      std::ostringstream os;
      os << "tag " << tid << " is <" << edict.Name(tid) << "> on disk but <"
         << adict.Name(tid) << "> live";
      report->AddError("storage", "state-tag-dict", os.str());
      break;
    }
  }

  // The tag-list is compared as an order-free multiset: LS-mode lists are
  // append-ordered until Freeze(), and the append order is deterministic
  // anyway — but nothing semantic rides on it, the set of (tid, path,
  // count) triples is the contract.
  auto collect_tag_entries = [](const LazyDatabase& db) {
    std::vector<std::tuple<TagId, std::vector<SegmentId>, uint64_t>> entries;
    db.update_log().tag_list().ForEachEntry(
        [&](TagId tid, const TagListEntry& entry) {
          entries.emplace_back(tid, entry.path, entry.count);
          return true;
        });
    std::sort(entries.begin(), entries.end());
    return entries;
  };
  if (collect_tag_entries(expected) != collect_tag_entries(actual)) {
    report->AddError("storage", "state-tag-list",
                     "tag-list entries differ between disk and live state");
  }
  report->BumpChecksRun();
}

Result<CheckReport> CheckDatabaseDirectory(const std::string& dir,
                                           const StorageCheckOptions& options,
                                           DirectoryReplay* replay_out) {
  CheckReport report;
  if (!FileExists(dir)) {
    report.AddInfo("storage", "dir-missing",
                   "database directory does not exist (empty database)");
    return report;
  }
  LAZYXML_ASSIGN_OR_RETURN(ReplayOutcome replay,
                           ReplayDirectory(dir, options.db, &report));
  if (replay_out != nullptr) *replay_out = replay.summary;
  if (options.deep_check_replayed_state && replay.complete) {
    LAZYXML_ASSIGN_OR_RETURN(CheckReport deep, CheckDatabase(*replay.db));
    report.Merge(deep);
  }
  return report;
}

Result<CheckReport> CheckDurableDatabase(const DurableLazyDatabase& db) {
  CheckReport report;
  if (!FileExists(db.dir())) {
    report.AddError("storage", "dir-missing",
                    "live handle's directory vanished: " + db.dir());
    return report;
  }
  LAZYXML_ASSIGN_OR_RETURN(
      ReplayOutcome replay,
      ReplayDirectory(db.dir(), db.options().db, &report));
  if (replay.complete) {
    CompareDatabaseStates(*replay.db, db.database(), &report);
  } else {
    report.AddError("storage", "state-unverifiable",
                    "on-disk history is damaged; the live state cannot be "
                    "cross-checked against it");
  }
  return report;
}

}  // namespace check
}  // namespace lazyxml
