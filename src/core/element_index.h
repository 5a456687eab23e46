// ElementIndex: the B+-tree of element records (paper §3.4).
//
// The paper keys the tree by the full tuple (tid, sid, start, end,
// LevelNum); since an element is already univocally identified by
// (sid, start), the records are ordered by (tid, sid, start) and carry
// (end, level) as the value. `start`/`end` are the element's *frozen
// local* offsets in its segment; they are never touched by later
// updates, which is the whole point of the lazy scheme.
//
// Runs. Records sharing (tid, sid) are written together, when their
// segment is spliced in, and afterwards only shrink (partial removal) or
// die (full removal, collapse). So the tree is keyed by (tid, sid) and
// each value is one immutable *run*: the (tid, sid) records sorted by
// start. Runs in key order, records in start order inside a run, give
// exactly the paper's (tid, sid, start) record order, which is what
// ForEachRecord, the scrubber and the snapshot format walk. A query
// reads a run in place (GetScan: no copy, no allocation), and a
// removal installs a shrunk copy instead of editing it (copy-on-write),
// so a run handed out earlier — to a running join or an MVCC version
// chain — never changes under its holder.

#ifndef LAZYXML_CORE_ELEMENT_INDEX_H_
#define LAZYXML_CORE_ELEMENT_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "btree/btree.h"
#include "common/result.h"
#include "core/segment.h"
#include "xml/element_record.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// One element in a segment's frozen coordinates.
struct LocalElement {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t level = 0;  ///< absolute level in the super document

  bool Contains(const LocalElement& o) const {
    return start < o.start && end > o.end;
  }
  bool operator==(const LocalElement& o) const {
    return start == o.start && end == o.end && level == o.level;
  }
};

/// Per-tag counts of deleted records, reported to the tag-list.
using RemovedCounts = std::map<TagId, uint64_t>;

/// One element-index record in key order, surfaced to external auditors
/// (src/check/) without exposing the private key layout.
struct ElementIndexRecord {
  TagId tid = 0;
  SegmentId sid = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t level = 0;
};

/// An immutable, shareable element run: one (tag, segment)'s elements in
/// ascending frozen start order.
using ElementScan = std::shared_ptr<const std::vector<LocalElement>>;

/// Pinned-epoch override source for element scans (docs/MVCC.md). A join
/// running against a historical read view consults one of these before
/// the live element index: a (tag, segment) list that has been mutated
/// *after* the view's epoch is served from the retired pre-image the
/// writer captured, while untouched lists — element-index records are
/// write-once per segment and delete-only afterwards — fall through to
/// the live index, which still holds exactly their pinned-epoch state.
class ScanVersionSource {
 public:
  virtual ~ScanVersionSource() = default;
  /// The raw (tid, sid) scan as of the pinned epoch, or nullptr when the
  /// live element index is still exact for that epoch.
  virtual ElementScan ScanAt(TagId tid, SegmentId sid) const = 0;
};

/// The element index.
class ElementIndex {
 public:
  explicit ElementIndex(BTreeOptions options = {}) : tree_(options) {}

  /// Indexes a parsed segment's records (local offsets, absolute levels)
  /// as one run per tag. AlreadyExists if (tid, sid) already has a run;
  /// InvalidArgument on two records of one tag with the same start.
  /// Either error leaves the index unchanged.
  Status InsertRecords(SegmentId sid, std::span<const ElementRecord> records);

  /// Indexes records spanning several segments/tags in one sorted-batch
  /// tree apply — the flush path of LazyDatabase::ApplyBatch, which
  /// defers the index work of a run of consecutive inserts. Holds exactly
  /// the same records as per-segment InsertRecords calls would.
  Status InsertRecordsBatch(std::span<const ElementIndexRecord> records);

  /// Replaces the whole index with `records` via the bottom-up B+-tree
  /// bulk load (fresh builds: snapshot restore, initial document load).
  /// Records may arrive in any order; duplicates are InvalidArgument.
  Status BuildFrom(std::vector<ElementIndexRecord> records);

  /// The (tid, sid) run, in ascending frozen start order: the stored run
  /// itself, shared, never copied (a shared empty run when there is
  /// none). It stays valid and unchanged after any later mutation.
  ElementScan GetScan(TagId tid, SegmentId sid) const;

  /// Number of (tid, sid) elements.
  uint64_t CountElements(TagId tid, SegmentId sid) const {
    return GetScan(tid, sid)->size();
  }

  /// Innermost element of (any tag in `tags`, sid) strictly containing
  /// frozen offset `f`; returns false if none. Used to find the depth of
  /// a splice point.
  bool FindInnermostContaining(SegmentId sid, std::span<const TagId> tags,
                               uint64_t f, LocalElement* out) const;

  /// Deletes every record of segment `sid` (whose tags are `tags`);
  /// returns per-tag deletion counts (paper §3.4: needed to decide which
  /// tag-list paths to drop).
  Result<RemovedCounts> DeleteSegment(SegmentId sid,
                                      std::span<const TagId> tags);

  /// Deletes records of `sid` lying entirely inside the frozen interval
  /// [begin, end); per-tag counts returned. A record straddling the
  /// boundary means the removal splits an element: Corruption, and
  /// nothing is deleted. Each shrunk run is replaced by a copy.
  Result<RemovedCounts> DeleteRange(SegmentId sid,
                                    std::span<const TagId> tags,
                                    uint64_t begin, uint64_t end);

  /// Total records.
  size_t size() const { return records_; }

  /// Approximate heap footprint: the tree plus every run.
  size_t MemoryBytes() const;

  /// Structural invariants of the backing tree, plus every run non-empty
  /// and strictly ascending by start, and size() their total (tests).
  Status CheckInvariants() const;

  /// Visits every record in (tid, sid, start) key order; `fn` returning
  /// false stops the walk. For the consistency scrubber.
  void ForEachRecord(
      const std::function<bool(const ElementIndexRecord&)>& fn) const {
    for (auto it = tree_.Begin(); it.Valid(); it.Next()) {
      const Key& k = it.key();
      for (const LocalElement& e : *it.value()) {
        if (!fn(ElementIndexRecord{k.tid, k.sid, e.start, e.end, e.level})) {
          return;
        }
      }
    }
  }

  /// Preorder shape walk over the backing tree's nodes (occupancy audit).
  void VisitTreeNodes(
      const std::function<bool(const BTreeNodeInfo&)>& fn) const {
    tree_.VisitNodes(fn);
  }

 private:
  struct Key {
    TagId tid = 0;
    SegmentId sid = 0;
    bool operator<(const Key& o) const {
      return std::tie(tid, sid) < std::tie(o.tid, o.sid);
    }
  };
  using Run = std::pair<Key, ElementScan>;

  /// Groups `records` into runs in key order; InvalidArgument on a
  /// duplicate (tid, sid, start).
  static Result<std::vector<Run>> MakeRuns(
      std::vector<ElementIndexRecord> records);

  /// Adds runs for keys not yet present (AlreadyExists otherwise, with
  /// nothing added).
  Status InsertRuns(std::vector<Run> runs);

  BTree<Key, ElementScan> tree_;
  size_t records_ = 0;
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_ELEMENT_INDEX_H_
