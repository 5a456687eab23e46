// Snapshot-isolated reads (MVCC-lite) over the lazy log — docs/MVCC.md.
//
// A ReadView pins the database state at one mutation epoch E and answers
// every query against exactly that state while writers proceed. The
// design exploits two properties of the lazy scheme:
//
//  * Element-index lists are write-once, delete-only: a (tag, segment)
//    list is created whole when its segment is inserted and afterwards
//    only ever shrinks (partial removal) or dies (full removal /
//    collapse). A list untouched since epoch E therefore *is* its
//    epoch-E state — the live index serves it verbatim — and a list
//    touched after E only needs its pre-image captured once, at the
//    first post-E mutation (MvccState::CaptureScan).
//  * Everything else a query consults — the ER-tree geometry, the
//    tag-list, the path summary — is O(N-segments) to copy, the same
//    asymptotic cost the write path already pays per positional update
//    for its gp sweep (UpdateLog::Clone).
//
// So a snapshot is: a cloned update log + the shared tag dictionary
// (append-only; tags interned after E have no tag-list entries in the
// clone, which matches replay semantics) + an optional copied path
// summary when it was fresh at pin time.
// Scans come from the live element index, overridden per (tag, segment)
// by the captured pre-images (SnapshotReader implements ScanVersionSource
// and is threaded into the join kernel).
//
// Reclamation is deferred: retired versions and cached snapshots are
// dropped as soon as no open view can still need them (Unpin/Capture
// both sweep). Out-of-band mutation through the mutable_* accessors
// bypasses capture, so it *poisons* open views — their queries fail with
// Internal instead of returning silently wrong data; the poison clears
// when every view closes.

#ifndef LAZYXML_CORE_READ_VIEW_H_
#define LAZYXML_CORE_READ_VIEW_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/ticket_rwlock.h"
#include "core/element_index.h"
#include "core/path_summary.h"
#include "core/query_facade.h"
#include "core/update_log.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// Point-in-time MVCC counters (mvcc.* metric rows mirror these;
/// docs/OBSERVABILITY.md).
struct MvccStats {
  size_t views_open = 0;      ///< open SnapshotReaders across all epochs
  size_t epochs_pinned = 0;   ///< distinct epochs with a cached snapshot
  size_t versions_live = 0;   ///< retired pre-images currently retained
  uint64_t versions_retired_total = 0;   ///< pre-images captured, lifetime
  uint64_t versions_reclaimed_total = 0; ///< pre-images dropped, lifetime
  bool poisoned = false;      ///< a mutable_* bypass hit open views
};

/// One immutable pinned state. Owned via shared_ptr so concurrent
/// OpenReadView calls at the same epoch share one clone.
struct ReadSnapshot {
  uint64_t epoch = 0;
  std::unique_ptr<const UpdateLog> log;
  /// The *live* dictionary, shared: tag ids are dense and never recycled,
  /// and tags interned after `epoch` have no entries in the cloned
  /// tag-list (unknown tag == empty result, exactly replay semantics).
  const TagDict* dict = nullptr;
  /// Deep copy of the path summary iff it was fresh at pin time (the
  /// live one is maintained in place and cannot be shared).
  std::unique_ptr<const PathSummary> summary;
};

/// Version store + view registry. One per LazyDatabase; internally
/// synchronized (its mutex is never held while acquiring any database
/// lock, so view teardown can never deadlock against a writer).
class MvccState {
 public:
  MvccState() = default;
  MvccState(const MvccState&) = delete;
  MvccState& operator=(const MvccState&) = delete;

  /// Pins the cached snapshot for `epoch` (incrementing its open count)
  /// or returns nullptr when none exists — the caller then builds one
  /// and calls PinNew.
  std::shared_ptr<const ReadSnapshot> Pin(uint64_t epoch);

  /// Registers `snap` as the snapshot of its epoch and pins it. If a
  /// concurrent caller registered one first, that canonical snapshot is
  /// pinned and returned instead (the duplicate clone is discarded).
  std::shared_ptr<const ReadSnapshot> PinNew(
      std::shared_ptr<const ReadSnapshot> snap);

  /// Drops one pin at `epoch`; reclaims versions and snapshots no open
  /// view can still need. Clears the poison flag when the last view
  /// closes.
  void Unpin(uint64_t epoch);

  /// True when any view is open (writers consult this before paying for
  /// a pre-image copy).
  bool HasOpenViews() const;

  /// Records the pre-image of (tid, sid) about to be mutated by the
  /// writer that bumped the epoch to `retire_epoch`. Captures at most
  /// once per (key, epoch): within one epoch the first capture holds the
  /// epoch-start state and later touches of the same list are skipped.
  /// No-op when no view is open.
  void CaptureScan(TagId tid, SegmentId sid, uint64_t retire_epoch,
                   ElementScan pre_image);

  /// The (tid, sid) scan as of `epoch`: the captured version with the
  /// smallest retire epoch > `epoch`, or nullptr when the list is
  /// untouched since `epoch` (the live index is then exact).
  ElementScan VersionedScanAt(TagId tid, SegmentId sid,
                              uint64_t epoch) const;

  /// Marks every open view poisoned (out-of-band mutation bypassed
  /// capture). No-op when no view is open.
  void Poison();
  bool poisoned() const;

  MvccStats Stats() const;

  /// I-MVCC: version chains strictly ascending and non-null; every
  /// retained version justified by an open view at an older epoch (with
  /// no views open, the store must be empty); cached snapshots exactly
  /// the open epochs, each internally consistent.
  Status CheckInvariants() const;

 private:
  struct Version {
    uint64_t retire_epoch = 0;  ///< first epoch whose state excludes this
    ElementScan scan;           ///< the list's state before that epoch
  };

  /// Drops versions/snapshots no open view can need. Caller holds mu_.
  void ReclaimLocked();

  mutable std::mutex mu_;
  std::map<uint64_t, size_t> open_;  ///< epoch -> open view count
  std::map<uint64_t, std::shared_ptr<const ReadSnapshot>> snapshots_;
  std::map<std::pair<TagId, SegmentId>, std::vector<Version>> versions_;
  uint64_t versions_retired_total_ = 0;
  uint64_t versions_reclaimed_total_ = 0;
  bool poisoned_ = false;
};

/// The QueryFacade of one pinned snapshot — unlocked; LazyDatabase hands
/// these out (OpenReadView) and ReadView adds the locking. Unpins in the
/// destructor. Must not outlive the database.
class SnapshotReader final : public QueryFacade, public ScanVersionSource {
 public:
  SnapshotReader(MvccState* mvcc, std::shared_ptr<const ReadSnapshot> snap,
                 const ElementIndex* live_index, bool use_path_summary)
      : mvcc_(mvcc),
        snap_(std::move(snap)),
        live_index_(live_index),
        use_path_summary_(use_path_summary) {}
  ~SnapshotReader() override;
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  /// The pinned mutation epoch.
  uint64_t epoch() const { return snap_->epoch; }

  // -- QueryFacade -------------------------------------------------------------

  /// A snapshot is immutable by construction.
  Status Freeze() override { return Status::OK(); }
  const UpdateLog& update_log() const override { return *snap_->log; }
  const TagDict& tag_dict() const override { return *snap_->dict; }
  const PathSummary* path_summary() const override {
    return use_path_summary_ ? snap_->summary.get() : nullptr;
  }
  ElementScan GetScan(TagId tid, SegmentId sid) override;
  Result<LazyJoinResult> JoinByName(
      std::string_view ancestor_tag, std::string_view descendant_tag,
      const LazyJoinOptions& options = {}) override;

  // -- ScanVersionSource -------------------------------------------------------

  ElementScan ScanAt(TagId tid, SegmentId sid) const override {
    return mvcc_->VersionedScanAt(tid, sid, snap_->epoch);
  }

 private:
  MvccState* mvcc_;
  std::shared_ptr<const ReadSnapshot> snap_;
  const ElementIndex* live_index_;
  bool use_path_summary_;  ///< QueryOptions::use_path_summary
};

/// The public consistent-read handle (ConcurrentLazyDatabase::OpenView):
/// a SnapshotReader plus the database's reader-writer lock. Every query
/// takes one shared acquisition for its own duration — the view holds no
/// lock between queries, so a pending writer is admitted between any two
/// view queries (this is what lets readers complete *during* a chunked
/// ApplyBatch). Closing the view (destruction) takes no database lock at
/// all; MvccState is internally synchronized.
class ReadView {
 public:
  /// An empty (closed) view; assigning one over a live view closes it.
  ReadView() = default;
  ReadView(TicketSharedMutex* mu, std::unique_ptr<SnapshotReader> reader)
      : mu_(mu), reader_(std::move(reader)) {}
  ReadView(ReadView&&) = default;
  ReadView& operator=(ReadView&&) = default;

  /// False once closed (moved-from or default-constructed).
  bool open() const { return reader_ != nullptr; }

  uint64_t epoch() const { return reader_->epoch(); }

  Result<LazyJoinResult> JoinByName(std::string_view anc,
                                    std::string_view desc,
                                    const LazyJoinOptions& options = {}) {
    std::shared_lock lock(*mu_);
    return reader_->JoinByName(anc, desc, options);
  }

  Result<std::vector<JoinPair>> JoinGlobal(
      std::string_view anc, std::string_view desc,
      const LazyJoinOptions& options = {}) {
    std::shared_lock lock(*mu_);
    return reader_->JoinGlobal(anc, desc, options);
  }

  Result<std::vector<GlobalElement>> MaterializeGlobalElements(
      std::string_view tag) {
    std::shared_lock lock(*mu_);
    return reader_->MaterializeGlobalElements(tag);
  }

  /// Runs `fn(QueryFacade&)` against the snapshot under one shared
  /// acquisition (for composite reads that must not interleave with a
  /// writer's chunks, and for EvaluateQuery, query/xpath.h).
  template <typename Fn>
  auto Query(Fn&& fn) {
    std::shared_lock lock(*mu_);
    return fn(static_cast<QueryFacade&>(*reader_));
  }

 private:
  TicketSharedMutex* mu_ = nullptr;
  std::unique_ptr<SnapshotReader> reader_;
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_READ_VIEW_H_
