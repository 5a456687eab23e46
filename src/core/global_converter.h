// GlobalConverter: frozen -> global offsets in O(log k) per element.
//
// SegmentNode::FrozenToGlobal walks every child splice and every frozen
// gap of the segment, so converting n elements of a segment with k
// children costs O(n * k) — 999 children per call on the top segment of a
// 1000-segment star. The converter builds, once per segment it touches,
// prefix sums over the children's global widths (ordered by lp) and over
// the gap widths (ordered by begin); each conversion is then two binary
// searches:
//
//   global(f) = gp + f - gaps_before(f) + widths of children spliced
//               before f (at f too, for element starts)
//
// — the paper's §3 local->global mapping with the removed-gap correction.
// The tables are a per-call cache: they hold pointers into the update
// log and are valid only while the log does not change, so a converter
// lives no longer than one query (or one JoinGlobal /
// MaterializeGlobalElements call). FrozenToGlobal stays the linear-walk
// oracle the converter is tested against.

#ifndef LAZYXML_CORE_GLOBAL_CONVERTER_H_
#define LAZYXML_CORE_GLOBAL_CONVERTER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/element_index.h"
#include "core/segment.h"
#include "join/global_element.h"

namespace lazyxml {

class GlobalConverter {
 public:
  /// Same contract as SegmentNode::FrozenToGlobal.
  uint64_t ToGlobal(const SegmentNode& node, uint64_t frozen,
                    bool include_splice_at_boundary);

  /// The element's global interval (start with the boundary splice, end
  /// without) and its level.
  GlobalElement ToGlobal(const SegmentNode& node, const LocalElement& e) {
    return GlobalElement{ToGlobal(node, e.start, true),
                         ToGlobal(node, e.end, false), e.level};
  }

 private:
  struct Tables {
    std::vector<uint64_t> child_lp;      ///< ascending
    std::vector<uint64_t> child_prefix;  ///< [i] = sum of l of children < i
    std::vector<uint64_t> gap_begin;     ///< ascending
    std::vector<uint64_t> gap_prefix;    ///< [i] = sum of widths of gaps < i
  };

  const Tables& TablesFor(const SegmentNode& node);

  std::unordered_map<const SegmentNode*, Tables> tables_;
  const SegmentNode* last_node_ = nullptr;
  const Tables* last_tables_ = nullptr;
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_GLOBAL_CONVERTER_H_
