// QueryFacade: the read-side surface the query evaluators run against.
//
// The query evaluator (query/xpath.h) and the canonicalization helpers
// only ever *read* the store: they look tags up, walk the tag
// list of a frozen log, fetch element scans, issue structural joins and
// convert lazy identities to global offsets. This interface captures
// exactly that surface so the same evaluators execute against either
//
//   * the live database (LazyDatabase implements the virtuals directly),
//   * a snapshot-isolated read view pinned at a historical mutation
//     epoch (core/read_view.h, docs/MVCC.md).
//
// The global-coordinate helpers (JoinGlobal, MaterializeGlobalElements)
// are implemented here once, in terms of the virtuals — their only inputs
// are the log geometry, the tag list and the element scans, all of which
// the facade provides. Both convert through one batched GlobalConverter
// per call (core/global_converter.h).

#ifndef LAZYXML_CORE_QUERY_FACADE_H_
#define LAZYXML_CORE_QUERY_FACADE_H_

#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/lazy_join.h"
#include "core/path_summary.h"
#include "core/update_log.h"
#include "join/global_element.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// Read-only query surface over one consistent state of the lazy store.
class QueryFacade {
 public:
  virtual ~QueryFacade() = default;

  /// Performs any deferred pre-query work (LS freeze, summary
  /// build). A no-op on an already-serviceable state — and always a
  /// no-op on a snapshot view, whose state is immutable by construction.
  /// Fails only when the live database's update capture rejects the
  /// freeze point (core/update_capture.h).
  virtual Status Freeze() = 0;

  /// The update log of this state. Must be serviceable after Freeze().
  virtual const UpdateLog& update_log() const = 0;

  /// The tag dictionary. Tag ids are assigned densely and never recycled,
  /// so a snapshot view may share the live dictionary: tags interned
  /// after the pinned epoch simply have no entries in the snapshot's tag
  /// list, which matches replay semantics (unknown tag == empty result).
  virtual const TagDict& tag_dict() const = 0;

  /// The path summary for this state, or nullptr when disabled or stale
  /// (consult-only; see core/path_summary.h).
  virtual const PathSummary* path_summary() const = 0;

  /// One (tag, segment) element scan of this state.
  virtual ElementScan GetScan(TagId tid, SegmentId sid) = 0;

  /// Lazy-Join of `ancestor_tag` // `descendant_tag` over this state.
  virtual Result<LazyJoinResult> JoinByName(
      std::string_view ancestor_tag, std::string_view descendant_tag,
      const LazyJoinOptions& options = {}) = 0;

  // -- Generic helpers over the virtuals ---------------------------------------

  /// Same join, results canonicalized to global start offsets and sorted
  /// (for cross-implementation comparisons).
  Result<std::vector<JoinPair>> JoinGlobal(std::string_view ancestor_tag,
                                           std::string_view descendant_tag,
                                           const LazyJoinOptions& options = {});

  /// All elements with `tag` in global coordinates, document order — the
  /// input a traditional (STD) join consumes.
  Result<std::vector<GlobalElement>> MaterializeGlobalElements(
      std::string_view tag);
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_QUERY_FACADE_H_
