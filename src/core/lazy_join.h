// Lazy-Join (paper §4.2, Fig. 9): the segment-aware structural join.
//
// Works directly on the update log: merges the two *segment* lists from
// the tag-list (not element lists), keeps a stack of ancestor segments,
// and uses Proposition 3 to generate cross-segment joins — an A-element
// `a` of segment S is an ancestor of every element of a descendant
// segment T iff a's frozen interval straddles P_T^S, the splice position
// of S's child on the path to T. In-segment joins run Stack-Tree-Desc on
// the frozen local coordinates. Elements are identified by
// (segment id, frozen start); nothing global is ever computed, which is
// why updates never invalidate query structures.
//
// Optimizations (paper Fig. 9, toggleable for the ablation bench):
//  * segments without child segments are never pushed (they cannot host
//    cross joins);
//  * pushed segments keep only elements that straddle at least one child
//    splice position;
//  * stack-top elements ending before the current splice position are
//    pruned (splice positions only grow, so they are dead for good);
//  * P values for non-top stack entries are cached at push time (the path
//    from a stack entry to any future descendant segment enters through
//    the same child while the entry above it remains on the stack).

#ifndef LAZYXML_CORE_LAZY_JOIN_H_
#define LAZYXML_CORE_LAZY_JOIN_H_

#include <cstdint>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "core/element_index.h"
#include "core/update_log.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// Lazy-Join knobs.
struct LazyJoinOptions {
  /// Emit only parent-child pairs (containment + level difference 1).
  /// Note: the paper restricts parent-child cross joins to the stack top
  /// via Proposition 3(1); an element of a *grandparent* segment can be a
  /// direct parent when the intermediate segment splices at top level, so
  /// this implementation checks every stack entry and filters by level,
  /// which is correct in that edge case too.
  bool parent_child = false;
  /// The Fig. 9 stack optimizations; off = the unoptimized §4.2 variant
  /// (ablation).
  bool optimize_stack = true;
  /// Path-summary pruning (core/path_summary.h): when non-null, only
  /// tag-list entries whose sid is in the set are scanned. The caller
  /// (LazyDatabase::JoinByName) derives the sets from a *fresh* summary,
  /// which proves entries outside them cannot contribute a pair — the
  /// pruned output is byte-identical to the unpruned one (the dropped
  /// entries' relative order is unchanged, and the kernel's stack
  /// geometry over the survivors is the same laminar family; see
  /// docs/PATH_SUMMARY.md). Both sets must outlive the join call.
  const std::unordered_set<SegmentId>* ancestor_sid_filter = nullptr;
  const std::unordered_set<SegmentId>* descendant_sid_filter = nullptr;
};

/// One join result in lazy coordinates: elements identified by
/// (segment id, frozen start offset).
struct LazyJoinPair {
  SegmentId ancestor_sid = 0;
  uint64_t ancestor_start = 0;
  SegmentId descendant_sid = 0;
  uint64_t descendant_start = 0;

  bool operator==(const LazyJoinPair& o) const {
    return ancestor_sid == o.ancestor_sid &&
           ancestor_start == o.ancestor_start &&
           descendant_sid == o.descendant_sid &&
           descendant_start == o.descendant_start;
  }
};

/// Join instrumentation (drives the §5.3 analyses).
///
/// `elements_fetched` counts records actually read out of the element
/// index; scans served again from the join's per-query fetch slots count
/// into `scans_reused` instead (so a self-join does not double-count the
/// list it reads under both roles).
struct LazyJoinStats {
  uint64_t cross_segment_pairs = 0;
  uint64_t in_segment_pairs = 0;
  uint64_t segments_pushed = 0;
  uint64_t segments_skipped = 0;  ///< A-segments never pushed
  uint64_t elements_fetched = 0;  ///< element-index records read
  uint64_t scans_reused = 0;      ///< scans served from a fetch slot
  /// Tag-list entries dropped by the path-summary sid filters before any
  /// scan was fetched (both roles), and the element occurrences those
  /// entries carried (elements the pruned run will never fetch).
  uint64_t segments_pruned = 0;
  uint64_t elements_skipped = 0;
};

/// Result of a Lazy-Join.
///
/// Pair order (the same with and without path-summary pruning; pinned by
/// LazyJoinPairOrderTest):
///  1. Pairs are grouped by descendant segment, and each descendant
///     segment forms exactly one contiguous group. Groups follow the
///     descendant tag's tag-list order (current global position).
///  2. Within a group, cross-segment pairs come first, outermost ancestor
///     segment first. For one ancestor segment, ancestors ascend by frozen
///     start, and each ancestor's descendants ascend by frozen start.
///  3. In-segment pairs follow in Stack-Tree-Desc order: descendants
///     ascend by frozen start, and each descendant's ancestors are listed
///     outermost (smallest start) first.
struct LazyJoinResult {
  std::vector<LazyJoinPair> pairs;
  LazyJoinStats stats;
};

/// Joins `ancestor_tid` // `descendant_tid` over the log + element index.
/// The log must be serviceable (LD always; LS after Freeze()).
///
/// When `versions` is non-null (pinned-epoch view queries, docs/MVCC.md),
/// each element scan consults it first, so lists retired after the view's
/// epoch are served from their captured pre-images.
Result<LazyJoinResult> LazyJoin(const UpdateLog& log,
                                const ElementIndex& index,
                                TagId ancestor_tid, TagId descendant_tid,
                                const LazyJoinOptions& options = {},
                                const ScanVersionSource* versions = nullptr);

class PathSummary;  // core/path_summary.h

/// LazyJoin by tag name over one consistent state: the live database and
/// its snapshot views both answer JoinByName through this. Unknown tags
/// yield an empty result. A non-null `summary` (fresh for that state)
/// prunes the join: a provably empty join returns in O(summary) without
/// scanning a tag list, and any other join scans only the segments the
/// summary qualifies (docs/PATH_SUMMARY.md).
Result<LazyJoinResult> LazyJoinByName(const UpdateLog& log,
                                      const ElementIndex& index,
                                      const TagDict& dict,
                                      const PathSummary* summary,
                                      std::string_view ancestor_tag,
                                      std::string_view descendant_tag,
                                      const LazyJoinOptions& options,
                                      const ScanVersionSource* versions);

}  // namespace lazyxml

#endif  // LAZYXML_CORE_LAZY_JOIN_H_
