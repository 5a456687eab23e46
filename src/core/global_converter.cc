#include "core/global_converter.h"

#include <algorithm>

namespace lazyxml {

const GlobalConverter::Tables& GlobalConverter::TablesFor(
    const SegmentNode& node) {
  if (last_node_ == &node) return *last_tables_;
  auto [it, fresh] = tables_.try_emplace(&node);
  Tables& t = it->second;
  if (fresh) {
    t.child_lp.reserve(node.children.size());
    t.child_prefix.reserve(node.children.size() + 1);
    t.child_prefix.push_back(0);
    for (const SegmentNode* c : node.children) {
      t.child_lp.push_back(c->lp);
      t.child_prefix.push_back(t.child_prefix.back() + c->l);
    }
    t.gap_begin.reserve(node.gaps.size());
    t.gap_prefix.reserve(node.gaps.size() + 1);
    t.gap_prefix.push_back(0);
    for (const FrozenGap& g : node.gaps) {
      t.gap_begin.push_back(g.begin);
      t.gap_prefix.push_back(t.gap_prefix.back() + g.width());
    }
  }
  last_node_ = &node;
  last_tables_ = &t;
  return t;
}

uint64_t GlobalConverter::ToGlobal(const SegmentNode& node, uint64_t frozen,
                                   bool include_splice_at_boundary) {
  const Tables& t = TablesFor(node);
  // Gaps starting before `frozen`: all but the last lie wholly before it;
  // the last may straddle it, and only its part before `frozen` counts.
  const size_t g = static_cast<size_t>(
      std::lower_bound(t.gap_begin.begin(), t.gap_begin.end(), frozen) -
      t.gap_begin.begin());
  uint64_t gap_width = t.gap_prefix[g];
  if (g > 0 && node.gaps[g - 1].end > frozen) {
    gap_width -= node.gaps[g - 1].end - frozen;
  }
  const auto lp_end =
      include_splice_at_boundary
          ? std::upper_bound(t.child_lp.begin(), t.child_lp.end(), frozen)
          : std::lower_bound(t.child_lp.begin(), t.child_lp.end(), frozen);
  const size_t c = static_cast<size_t>(lp_end - t.child_lp.begin());
  return node.gp + frozen - gap_width + t.child_prefix[c];
}

}  // namespace lazyxml
