// LazyDatabase: the user-facing facade over the lazy XML store — update
// log (SB-tree + tag-list), element index and tag dictionary — exposing
// the paper's two operations (insert/remove a segment given only its
// global position and length/text, §3.3) and segment-aware structural
// joins (§4).
//
// Typical use:
// \code
//   LazyDatabase db;                                 // LD mode
//   auto sid = db.InsertSegment(xml_text, /*gp=*/0); // batch insert
//   auto result = db.JoinByName("person", "phone");  // A//D join
// \endcode

#ifndef LAZYXML_CORE_LAZY_DATABASE_H_
#define LAZYXML_CORE_LAZY_DATABASE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/element_index.h"
#include "core/lazy_join.h"
#include "core/path_summary.h"
#include "core/query_facade.h"
#include "core/read_view.h"
#include "core/update_batch.h"
#include "core/update_capture.h"
#include "core/update_log.h"
#include "join/global_element.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// Facade-level query execution knobs (plumbed through LazyDatabase /
/// DurableLazyDatabase into every join).
struct QueryOptions {
  /// Consult the path summary (core/path_summary.h) before each join:
  /// provably-empty joins return without touching a tag list, other
  /// joins scan only summary-qualified segments. Output is byte-identical
  /// either way (A/B measurement flag; see docs/PATH_SUMMARY.md).
  bool use_path_summary = true;
};

/// Facade configuration.
struct LazyDatabaseOptions {
  /// LD (fully incremental) vs LS (freeze before query) — paper §5.1.
  LogMode mode = LogMode::kLazyDynamic;
  BTreeOptions element_index_options;
  BTreeOptions sb_tree_options;
  /// Query execution: path-summary pruning.
  QueryOptions query;
};

/// Space/size snapshot (drives Fig. 11).
struct LazyDatabaseStats {
  size_t num_segments = 0;
  size_t num_elements = 0;
  size_t num_tags = 0;
  uint64_t super_document_length = 0;
  size_t sb_tree_bytes = 0;
  size_t tag_list_bytes = 0;
  size_t element_index_bytes = 0;

  size_t update_log_bytes() const { return sb_tree_bytes + tag_list_bytes; }
};

/// The lazy XML database.
class LazyDatabase : public QueryFacade {
 public:
  explicit LazyDatabase(LazyDatabaseOptions options = {});
  LazyDatabase(const LazyDatabase&) = delete;
  LazyDatabase& operator=(const LazyDatabase&) = delete;

  // -- Updates (paper §3.3) --------------------------------------------------

  /// Inserts segment `text` (a well-formed single-rooted document) at
  /// global position `gp` of the super document. Returns the new sid.
  Result<SegmentId> InsertSegment(std::string_view text, uint64_t gp);

  /// Removes the region [gp, gp+length) — any combination of containment
  /// and left/right intersection with existing segments (paper Fig. 6) as
  /// long as no element is split.
  Status RemoveSegment(uint64_t gp, uint64_t length);

  /// Applies `ops` in order with exactly the observable effect of the
  /// equivalent InsertSegment/RemoveSegment calls — same sids, same
  /// frozen coordinates, same serialized snapshot, same first error —
  /// while amortizing per-op costs: the mutation epoch is bumped once,
  /// element-index inserts of consecutive insertions are deferred into
  /// one sorted-batch tree apply (bulk load when the index is empty),
  /// immediately-adjacent insert/remove pairs that exactly cancel are
  /// short-circuited (their sid is still burned and both ops are still
  /// captured, so WAL replay stays sid-exact), and the update capture is
  /// told the batch boundaries so the durability layer can write one
  /// WAL batch + one sync. On an op failure the preceding ops remain
  /// fully applied (prefix semantics, like a sequential loop).
  Result<BatchStats> ApplyBatch(std::span<const UpdateOp> ops);

  /// Same, but fills `*stats_out` (if non-null) even when the batch
  /// fails: the counters then cover exactly the applied prefix — the
  /// rejected op contributes no applied count, no cancelled pair, no
  /// index-insert counts, and its sids slot stays 0 (its sid is still
  /// burned inside the database so later sids match sequential apply).
  Status ApplyBatch(std::span<const UpdateOp> ops, BatchStats* stats_out);

  // -- Maintenance (paper §1 "maintenance hours", §5.3 collapse) -------------

  /// Collapses segment `sid` and all its descendants into one fresh
  /// segment spanning the same text: element records are re-keyed into
  /// the new segment's (current-global-relative) frozen coordinates, the
  /// tag-list is rewritten, the old subtree leaves the SB-tree. Reduces N
  /// where query overhead has grown (paper §5.3). Returns the new sid.
  Result<SegmentId> CollapseSubtree(SegmentId sid);

  /// Collapses every top-level segment: afterwards the update log holds
  /// one segment per document under the dummy root — the "update log can
  /// be periodically cleared" maintenance action of §1.
  Status CompactAll();

  // -- Queries (paper §4) ------------------------------------------------------

  /// Lazy-Join of `ancestor_tag` // `descendant_tag`. Unknown tags yield
  /// an empty result. In LS mode this triggers the freeze (sorting the
  /// tag-list and building the sid B+-tree) — the cost the LS curves pay
  /// at query time in §5.3.
  Result<LazyJoinResult> JoinByName(std::string_view ancestor_tag,
                                    std::string_view descendant_tag,
                                    const LazyJoinOptions& options = {}) override;

  // JoinGlobal / MaterializeGlobalElements are inherited
  // from QueryFacade, implemented once over the virtuals below.

  /// LS mode: performs the pre-query work explicitly (benches time it),
  /// and rebuilds a stale path summary. Freezing an unfrozen LS log fires
  /// the update capture's OnFreeze, whose error is returned.
  Status Freeze() override;

  // -- Snapshot-isolated reads (docs/MVCC.md) ----------------------------------

  /// Pins the current state and returns its reader. The state must be
  /// (or is made, via Freeze) query-serviceable first, so in concurrent
  /// use the caller routes through the QueryNeedsExclusive predicate
  /// (ConcurrentLazyDatabase::OpenView does). The reader answers every
  /// query as of this exact epoch while later writes proceed; it must
  /// not outlive the database.
  Result<std::unique_ptr<SnapshotReader>> OpenReadView();

  /// True when a query (or OpenReadView) would have to mutate the facade
  /// first: LS log not frozen / tag-list unsorted, or an enabled path
  /// summary is stale for the current epoch. Concurrent wrappers use
  /// this to route reads to the exclusive lock exactly when the deferred
  /// work is pending — afterwards reads share the lock again (the
  /// post-freeze downgrade fix).
  bool QueryNeedsExclusive() const;

  /// True when any read view is currently open.
  bool HasOpenViews() const { return mvcc_.HasOpenViews(); }

  /// The MVCC version store / view registry (stats + I-MVCC scrubber).
  const MvccState& mvcc() const { return mvcc_; }

  // -- Query execution ---------------------------------------------------------

  /// Reconfigures query execution (benches sweep this). Not thread-safe
  /// against concurrent queries.
  void SetQueryOptions(const QueryOptions& query);
  const QueryOptions& query_options() const { return options_.query; }

  /// One (tag, segment) element scan: the element index's run, in place.
  ElementScan GetScan(TagId tid, SegmentId sid) override {
    return index_.GetScan(tid, sid);
  }

  /// Monotonic counter bumped by every mutating facade operation; the
  /// path summary and the MVCC read views are stamped with it.
  uint64_t mutation_epoch() const { return mutation_epoch_; }

  // -- Introspection -----------------------------------------------------------

  const UpdateLog& update_log() const override { return log_; }
  const ElementIndex& element_index() const { return index_; }
  const TagDict& tag_dict() const override { return dict_; }

  /// The path summary (DataGuide), or nullptr when disabled
  /// (QueryOptions::use_path_summary) or stale for the current mutation
  /// epoch. Incremental maintenance keeps it fresh through every facade
  /// update in steady state; it goes stale only after a mutable_*
  /// bypass, a failed mid-mutation op, or an unattributable structure
  /// (pre-v4 snapshot entries) — a stale summary silently disables
  /// pruning, it is never consulted (see docs/PATH_SUMMARY.md).
  const PathSummary* path_summary() const override {
    return options_.query.use_path_summary && summary_ != nullptr &&
                   summary_built_epoch_ == mutation_epoch_
               ? summary_.get()
               : nullptr;
  }

  /// Builds (or rebuilds, after the summary went stale) the path summary
  /// when QueryOptions::use_path_summary is set; no-op otherwise. Called
  /// from Freeze(), SetQueryOptions and snapshot restore — deliberately
  /// NOT from the join path, which runs under ConcurrentLazyDatabase's
  /// shared lock and must never mutate the facade.
  Status EnsurePathSummary();

  /// Builds a summary from a live traversal of the ER-tree + element
  /// index, with exact strong-edge states (PathSummary::
  /// ComputeStrongEdges). The I-SUMMARY scrubber compares this against
  /// the maintained one (CanonicalLines, FalseStrongEdges).
  static Result<std::unique_ptr<PathSummary>> BuildPathSummary(
      const UpdateLog& log, const ElementIndex& index);

  /// Mutable access for snapshot restore (core/snapshot.h); not part of
  /// the stable API — going around the facade invalidates its invariants
  /// unless you restore a complete consistent state. Each accessor bumps
  /// the mutation epoch so a path summary built before the bypass is
  /// never consulted afterwards, and poisons any open read view — a
  /// bypass mutation cannot capture pre-images, so views pinned before
  /// it would otherwise read silently inconsistent state (docs/MVCC.md).
  UpdateLog& mutable_update_log() {
    ++mutation_epoch_;
    mvcc_.Poison();
    return log_;
  }
  ElementIndex& mutable_element_index() {
    ++mutation_epoch_;
    mvcc_.Poison();
    return index_;
  }
  TagDict& mutable_tag_dict() {
    ++mutation_epoch_;
    mvcc_.Poison();
    return dict_;
  }

  /// Registers an observer of the logical update stream (durability /
  /// replication; see core/update_capture.h). Pass nullptr to detach.
  /// The capture must outlive the database or be detached first.
  void set_update_capture(UpdateCapture* capture) { capture_ = capture; }
  UpdateCapture* update_capture() const { return capture_; }

  LazyDatabaseStats Stats() const;

  /// Deep integrity check: ER-tree structure, both B+-trees, tag-list
  /// counts vs element-index counts. For tests.
  Status CheckInvariants() const;

 private:
  /// InsertSegment minus the epoch bump / capture / paranoid check
  /// (ApplyBatch performs those per batch). When `deferred` is non-null
  /// the element-index records are appended there instead of applied —
  /// legal because nothing on the insert path reads the element index,
  /// so a run of inserts can flush once via InsertRecordsBatch.
  /// `*mutated` (may be null) is set just before the first structural
  /// mutation: a failure with it still false provably changed nothing,
  /// so the wrapper rolls the epoch bump back.
  Result<SegmentId> InsertSegmentImpl(std::string_view text, uint64_t gp,
                                      std::vector<ElementIndexRecord>* deferred,
                                      bool* mutated);

  /// RemoveSegment minus the epoch bump / capture / paranoid check.
  /// Same `*mutated` contract as InsertSegmentImpl.
  Status RemoveSegmentImpl(uint64_t gp, uint64_t length, bool* mutated);

  /// Freezes the update log; when that takes an LS log from unfrozen to
  /// frozen, tells the update capture (OnFreeze), so the freeze point is
  /// journaled whichever query or call caused it.
  Status FreezeLog();

  // -- Path-summary incremental maintenance ------------------------------------
  //
  // Wrappers call SummaryBeginMutation() right after bumping the epoch
  // (arming tracking iff the summary was fresh before the bump) and
  // SummaryCommit() before returning (re-stamping the summary iff
  // tracking survived). The Impl methods disarm tracking just before
  // their first structural mutation and re-arm it only after successful
  // maintenance, so any failure between mutation and maintenance leaves
  // the summary stale — never wrong.

  void SummaryBeginMutation() {
    summary_track_ = options_.query.use_path_summary && summary_ != nullptr &&
                     summary_built_epoch_ + 1 == mutation_epoch_;
  }
  void SummaryCommit() {
    if (summary_track_) summary_built_epoch_ = mutation_epoch_;
    summary_track_ = false;
  }

  /// Summary node of a splice point: the parent segment's context node
  /// extended along the parent's own-element chain containing `lp`.
  /// kNoNode when unattributable (stale pre-v4 entries).
  uint32_t SummaryContextOf(const SegmentNode& parent, uint64_t lp);

  /// Attributes every nesting-summary entry of `seg` under context node
  /// `ctx` and records the segment context; `new_elements` (an insert,
  /// not a collapse) also runs the strong-edge upkeep. False when
  /// unattributable (the caller then leaves the summary stale).
  bool SummaryAddSegment(const SegmentNode& seg, uint32_t ctx,
                         bool new_elements);

  /// Summary node of the live element starting at frozen `start` of
  /// `seg`, or kNoNode; `*entry` (may be null) receives its nesting
  /// entry's index.
  uint32_t SummaryNodeOfElement(const SegmentNode& seg, uint64_t start,
                                uint32_t* entry = nullptr);

  LazyDatabaseOptions options_;
  UpdateLog log_;
  ElementIndex index_;
  TagDict dict_;
  UpdateCapture* capture_ = nullptr;
  uint64_t mutation_epoch_ = 0;
  /// The path summary (core/path_summary.h), fresh iff
  /// summary_built_epoch_ == mutation_epoch_ (see path_summary()).
  std::unique_ptr<PathSummary> summary_;
  uint64_t summary_built_epoch_ = 0;
  /// Armed per mutating op; see SummaryBeginMutation/SummaryCommit.
  bool summary_track_ = false;
  /// MVCC version store + view registry (docs/MVCC.md). Internally
  /// synchronized; writers capture retired (tag, segment) pre-images
  /// into it when views are open.
  MvccState mvcc_;
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_LAZY_DATABASE_H_
