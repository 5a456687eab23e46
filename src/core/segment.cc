#include "core/segment.h"

#include <algorithm>

#include "common/logging.h"

namespace lazyxml {

uint64_t SegmentNode::FrozenPos(uint64_t g) const {
  LAZYXML_DCHECK(g >= gp && g <= end());
  // Walk splice/gap events in frozen order, consuming actual (current)
  // width until the target offset is reached.
  uint64_t remaining = g - gp;  // actual width still to consume
  uint64_t frozen = 0;
  size_t ci = 0;
  size_t gi = 0;
  for (;;) {
    const bool has_child = ci < children.size();
    const bool has_gap = gi < gaps.size();
    if (!has_child && !has_gap) break;
    // Next event position in frozen coordinates; children win ties (their
    // spliced text physically precedes a gap recorded at the same point).
    const uint64_t child_pos =
        has_child ? children[ci]->lp : ~uint64_t{0};
    const uint64_t gap_pos = has_gap ? gaps[gi].begin : ~uint64_t{0};
    if (child_pos <= gap_pos) {
      const uint64_t span = child_pos - frozen;  // own text before event
      if (remaining < span) return frozen + remaining;
      remaining -= span;
      frozen = child_pos;
      const uint64_t cl = children[ci]->l;
      if (remaining < cl) return frozen;  // inside the child: its splice
      remaining -= cl;
      ++ci;
    } else {
      const uint64_t span = gap_pos - frozen;
      if (remaining < span) return frozen + remaining;
      remaining -= span;
      frozen = gaps[gi].end;  // the gap has zero current width
      ++gi;
    }
  }
  return frozen + remaining;
}

uint64_t SegmentNode::GapWidthBefore(uint64_t f) const {
  uint64_t w = 0;
  for (const FrozenGap& g : gaps) {
    if (g.end <= f) {
      w += g.width();
    } else if (g.begin < f) {
      w += f - g.begin;  // partially before (boundary case)
    } else {
      break;
    }
  }
  return w;
}

uint64_t SegmentNode::FrozenToGlobal(uint64_t frozen,
                                     bool include_splice_at_boundary) const {
  uint64_t actual = frozen - GapWidthBefore(frozen);
  for (const SegmentNode* c : children) {
    if (c->lp < frozen || (include_splice_at_boundary && c->lp == frozen)) {
      actual += c->l;
    } else if (c->lp > frozen) {
      break;
    }
  }
  return gp + actual;
}

uint32_t SegmentNode::LevelAt(uint64_t f, uint32_t fallback) const {
  // Last entry starting strictly before f.
  auto it = std::lower_bound(
      summary.begin(), summary.end(), f,
      [](const NestingEntry& e, uint64_t target) { return e.start < target; });
  if (it == summary.begin()) return fallback;
  uint32_t j = static_cast<uint32_t>(it - summary.begin()) - 1;
  // Walk the ancestor chain; the first entry spanning f is the innermost
  // container (removed elements never span a reachable offset).
  while (j != kNoParentEntry) {
    if (summary[j].end > f) return summary[j].level;
    j = summary[j].parent;
  }
  return fallback;
}

std::vector<TagId> SegmentNode::AncestorTagsAt(uint64_t f) const {
  std::vector<TagId> tags;
  auto it = std::lower_bound(
      summary.begin(), summary.end(), f,
      [](const NestingEntry& e, uint64_t target) { return e.start < target; });
  if (it == summary.begin()) return tags;
  uint32_t j = static_cast<uint32_t>(it - summary.begin()) - 1;
  // Same walk as LevelAt, but once the innermost container is found every
  // entry further up the chain contains f too (intervals nest).
  while (j != kNoParentEntry) {
    if (summary[j].end > f) {
      for (; j != kNoParentEntry; j = summary[j].parent) {
        tags.push_back(summary[j].tid);
      }
      std::reverse(tags.begin(), tags.end());
      return tags;
    }
    j = summary[j].parent;
  }
  return tags;
}

void SegmentNode::AddGap(uint64_t begin, uint64_t end) {
  if (begin >= end) return;
  FrozenGap g{begin, end};
  // Insert keeping gaps sorted, then merge overlapping/adjacent runs.
  auto it = std::lower_bound(
      gaps.begin(), gaps.end(), g,
      [](const FrozenGap& a, const FrozenGap& b) { return a.begin < b.begin; });
  it = gaps.insert(it, g);
  // Merge left.
  size_t i = static_cast<size_t>(it - gaps.begin());
  if (i > 0 && gaps[i - 1].end >= gaps[i].begin) {
    gaps[i - 1].end = std::max(gaps[i - 1].end, gaps[i].end);
    gaps.erase(gaps.begin() + static_cast<ptrdiff_t>(i));
    --i;
  }
  // Merge right (possibly several).
  while (i + 1 < gaps.size() && gaps[i].end >= gaps[i + 1].begin) {
    gaps[i].end = std::max(gaps[i].end, gaps[i + 1].end);
    gaps.erase(gaps.begin() + static_cast<ptrdiff_t>(i) + 1);
  }
  for (SegmentNode* c : children) {
    if (c->lp > gaps[i].begin && c->lp < gaps[i].end) c->lp = gaps[i].begin;
  }
}

}  // namespace lazyxml
