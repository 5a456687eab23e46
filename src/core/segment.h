// SegmentNode: one XML segment of the super document, i.e. one leaf of the
// SB-tree / node of the ER-tree (paper §3.1-3.2).
//
// Coordinate systems
// ------------------
// Every segment has two coordinate systems:
//  * global: current byte offsets in the super document; `gp` and `l`
//    change as segments are inserted/removed around and inside it.
//  * frozen (local): byte offsets in the segment's text *as it was at
//    insertion time*. Element labels (paper §3.4) and child local
//    positions `lp` (paper Def. 2) live here and never change.
// The divergence between the two is fully described by (a) the child
// segments spliced in (each contributes +child.l of global width at frozen
// position child.lp) and (b) the *gaps* — frozen intervals whose text was
// later removed (each contributes -gap width). The paper tracks (a)
// explicitly and is silent about (b) for partial deletions (its Def. 2
// invariance argument only covers whole-segment sibling updates); gaps are
// the missing piece that keeps frozen coordinates consistent after
// deletions that remove part of a segment's own text.

#ifndef LAZYXML_CORE_SEGMENT_H_
#define LAZYXML_CORE_SEGMENT_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// Unique segment identifier, assigned by the system at insertion
/// (paper §3.2). Id 0 is the dummy root.
using SegmentId = uint64_t;

/// The dummy root's id.
inline constexpr SegmentId kRootSegmentId = 0;

/// A frozen interval of a segment's original text that has been removed.
struct FrozenGap {
  uint64_t begin = 0;  ///< frozen offset of the first removed byte
  uint64_t end = 0;    ///< frozen offset one past the last removed byte

  uint64_t width() const { return end - begin; }
};

/// One element of the segment's nesting summary: frozen interval, parent
/// link and absolute level, in document (preorder/start) order.
///
/// The summary answers "how deep is frozen offset f?" in O(log n + depth)
/// — the LevelNum derivation the paper leaves implicit (§3.4 keys carry
/// LevelNum but §3.3 assumes an insertion arrives as only position +
/// length, so the depth of the splice point must be computed). It needs
/// no maintenance on deletions: a removed element lies entirely inside a
/// removed frozen interval, so it can never again contain a reachable
/// splice point and the stale entry is harmless.
struct NestingEntry {
  uint64_t start = 0;
  uint64_t end = 0;
  /// Index of the parent entry within the summary; kNoParentEntry at top.
  uint32_t parent = 0xffffffffu;
  /// Absolute level in the super document.
  uint32_t level = 0;
  /// Tag of the element (kNoEntryTag on entries restored from pre-v4
  /// snapshots whose element record no longer exists — such entries are
  /// stale, i.e. never on the ancestor chain of a reachable offset).
  TagId tid = 0xffffffffu;
};

inline constexpr uint32_t kNoParentEntry = 0xffffffffu;
inline constexpr TagId kNoEntryTag = 0xffffffffu;

/// One segment (ER-tree node / SB-tree leaf).
struct SegmentNode {
  SegmentId sid = 0;
  uint64_t gp = 0;  ///< global position (offset of first byte, current)
  uint64_t l = 0;   ///< current global width, incl. nested child segments
  uint64_t lp = 0;  ///< frozen position within the parent (paper Def. 2)
  /// Absolute depth of the splice point: the level of the innermost
  /// element containing this segment's text. Elements of this segment
  /// have absolute level = base_level + their level within the segment.
  uint32_t base_level = 0;

  SegmentNode* parent = nullptr;
  /// Child segments ordered by global position (equivalently by lp).
  std::vector<SegmentNode*> children;
  /// Removed frozen intervals, disjoint, ascending.
  std::vector<FrozenGap> gaps;
  /// Distinct tags among this segment's *own* elements (ascending tid).
  std::vector<TagId> distinct_tags;
  /// Nesting summary of this segment's own elements, start-ordered.
  std::vector<NestingEntry> summary;

  /// Global offset one past the segment's last byte.
  uint64_t end() const { return gp + l; }

  /// True iff the global point `g` lies strictly inside this segment
  /// (insertion at either boundary belongs to the parent).
  bool ContainsPoint(uint64_t g) const { return gp < g && g < end(); }

  /// True iff this segment properly contains the global range
  /// [other_gp, other_gp + other_l) (paper Def. 1).
  bool ContainsRange(uint64_t other_gp, uint64_t other_l) const {
    return gp < other_gp && end() > other_gp + other_l;
  }
  bool ContainsSegment(const SegmentNode& other) const {
    return ContainsRange(other.gp, other.l);
  }

  /// Converts a global point inside this segment (but inside no child) to
  /// frozen coordinates; a point inside a child segment maps to the
  /// child's splice position (its lp). `g` must be in [gp, end()].
  uint64_t FrozenPos(uint64_t g) const;

  /// Converts a frozen offset to the current global offset, resolving the
  /// splices and gaps before it. For element *start* offsets pass
  /// `include_splice_at_boundary=true` (a child spliced exactly at the
  /// start offset sits before the element and pushes it right); for
  /// element *end* offsets (one past the close tag) pass `false` (a child
  /// spliced exactly there is a following sibling). A linear walk over
  /// children and gaps: the reference that core/global_converter.h's
  /// O(log k) conversion is tested against.
  uint64_t FrozenToGlobal(uint64_t frozen,
                          bool include_splice_at_boundary) const;

  /// Sum of the widths of gaps entirely before frozen offset `f`.
  uint64_t GapWidthBefore(uint64_t f) const;

  /// Records a removed frozen interval, merging with existing gaps. A
  /// child spliced strictly inside the merged gap (at the point where two
  /// removed intervals touched) moves to the gap's begin: the gap has
  /// zero current width, so its global position is unchanged, and every
  /// walk over children and gaps assumes no splice point lies inside a
  /// gap.
  void AddGap(uint64_t begin, uint64_t end);

  /// Level of the innermost own element whose frozen interval strictly
  /// contains `f`, or `fallback` when no own element contains it.
  uint32_t LevelAt(uint64_t f, uint32_t fallback) const;

  /// Tags of the own elements whose frozen intervals strictly contain
  /// `f`, outermost first — the within-segment suffix of the root-to-tag
  /// path of a splice point at `f` (core/path_summary.h).
  std::vector<TagId> AncestorTagsAt(uint64_t f) const;

  /// Approximate heap footprint of this node (for Fig. 11; excludes the
  /// nesting summary, which is element- not segment-proportional and is
  /// accounted separately).
  size_t MemoryBytes() const {
    return sizeof(SegmentNode) + children.capacity() * sizeof(SegmentNode*) +
           gaps.capacity() * sizeof(FrozenGap) +
           distinct_tags.capacity() * sizeof(TagId);
  }

  /// Heap footprint of the nesting summary.
  size_t SummaryMemoryBytes() const {
    return summary.capacity() * sizeof(NestingEntry);
  }
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_SEGMENT_H_
