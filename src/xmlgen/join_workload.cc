#include "xmlgen/join_workload.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace lazyxml {

const char* ErTreeShapeName(ErTreeShape shape) {
  switch (shape) {
    case ErTreeShape::kNested:
      return "nested";
    case ErTreeShape::kBalanced:
      return "balanced";
  }
  return "?";
}

namespace {

void EmitInSegmentPairs(std::string* out, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) out->append("<A><D/></A>");
}

// Inert elements that join nothing: D's outside any A, then empty A's as
// their siblings.
void EmitFillers(std::string* out, uint64_t a_fill, uint64_t d_fill) {
  if (a_fill == 0 && d_fill == 0) return;
  out->append("<F>");
  for (uint64_t i = 0; i < d_fill; ++i) out->append("<D/>");
  for (uint64_t i = 0; i < a_fill; ++i) out->append("<A></A>");
  out->append("</F>");
}

// Splits `total` into `parts` near-equal chunks (first chunks get the
// remainder).
std::vector<uint64_t> SplitEvenly(uint64_t total, uint64_t parts) {
  std::vector<uint64_t> out(parts, parts == 0 ? 0 : total / parts);
  if (parts == 0) return out;
  const uint64_t rem = total % parts;
  for (uint64_t i = 0; i < rem; ++i) ++out[i];
  return out;
}

// The balanced (star) shape. Layout, designed so that the lazy store can
// actually *skip* what does not join (the effect the paper measures):
//  * top segment: the in-segment <A><D/></A> pairs and one hole per child;
//    holes of cross-children are wrapped in <A>, others sit in <W>;
//  * cross children: only the cross-join D's;
//  * remaining children alternate between A-filler-only and
//    D-filler-only segments.
Result<JoinWorkloadPlan> BuildBalanced(const JoinWorkloadConfig& cfg,
                                       uint64_t cross, uint64_t inseg) {
  JoinWorkloadPlan plan;
  const uint32_t children = cfg.num_segments - 1;
  // Reserve a slice of the children as dedicated A-only / D-only filler
  // hosts so they stay skippable even when every cross child is wrapped.
  const uint32_t reserved =
      children >= 6 ? std::max<uint32_t>(2, children / 6) : 0;
  const uint32_t cross_children = children - reserved;
  std::vector<uint64_t> cross_d = SplitEvenly(cross, cross_children);
  cross_d.resize(children, 0);  // reserved children carry no cross D's
  uint64_t wrapped = 0;
  for (uint64_t c : cross_d) {
    if (c > 0) ++wrapped;
  }
  const uint64_t a_used = inseg + wrapped;
  const uint64_t d_used = inseg + cross;
  if (a_used > cfg.num_a_elements) {
    return Status::InvalidArgument(StringPrintf(
        "num_a_elements too small: need %llu",
        static_cast<unsigned long long>(a_used)));
  }
  if (d_used > cfg.num_d_elements) {
    return Status::InvalidArgument(StringPrintf(
        "num_d_elements too small: need %llu",
        static_cast<unsigned long long>(d_used)));
  }
  // Unwrapped children alternate A-filler / D-filler duty; with no
  // unwrapped children left, fillers fall back to the top segment (they
  // are inert there too, just not skippable).
  std::vector<uint32_t> a_hosts;
  std::vector<uint32_t> d_hosts;
  for (uint32_t i = 0; i < children; ++i) {
    if (cross_d[i] != 0) continue;
    if ((a_hosts.size() + d_hosts.size()) % 2 == 0) {
      a_hosts.push_back(i);
    } else {
      d_hosts.push_back(i);
    }
  }
  const uint64_t a_fill_total = cfg.num_a_elements - a_used;
  const uint64_t d_fill_total = cfg.num_d_elements - d_used;
  uint64_t top_a_fill = 0;
  uint64_t top_d_fill = 0;
  std::vector<uint64_t> a_fill = SplitEvenly(a_fill_total, a_hosts.size());
  std::vector<uint64_t> d_fill = SplitEvenly(d_fill_total, d_hosts.size());
  if (a_hosts.empty()) top_a_fill = a_fill_total;
  if (d_hosts.empty()) top_d_fill = d_fill_total;
  std::vector<uint64_t> child_a_fill(children, 0);
  std::vector<uint64_t> child_d_fill(children, 0);
  for (size_t i = 0; i < a_hosts.size(); ++i) {
    child_a_fill[a_hosts[i]] = a_fill[i];
  }
  for (size_t i = 0; i < d_hosts.size(); ++i) {
    child_d_fill[d_hosts[i]] = d_fill[i];
  }

  // Top segment.
  std::string top = "<seg>";
  EmitInSegmentPairs(&top, inseg);
  EmitFillers(&top, top_a_fill, top_d_fill);
  std::vector<uint64_t> hole_offsets(children);
  for (uint32_t i = 0; i < children; ++i) {
    if (cross_d[i] > 0) {
      top.append("<A>");
      hole_offsets[i] = top.size();
      top.append("</A>");
    } else {
      top.append("<W>");
      hole_offsets[i] = top.size();
      top.append("</W>");
    }
  }
  top.append("</seg>");
  plan.insertions.push_back(SegmentInsertion{std::move(top), 0});

  // Children, inserted in document order of their holes.
  uint64_t shift = 0;
  for (uint32_t i = 0; i < children; ++i) {
    std::string child = "<seg>";
    for (uint64_t k = 0; k < cross_d[i]; ++k) child.append("<D/>");
    EmitFillers(&child, child_a_fill[i], child_d_fill[i]);
    child.append("</seg>");
    const uint64_t len = child.size();
    plan.insertions.push_back(
        SegmentInsertion{std::move(child), hole_offsets[i] + shift});
    shift += len;
  }

  plan.in_segment_joins = inseg;
  plan.cross_segment_joins = cross;
  plan.num_a_elements = cfg.num_a_elements;
  plan.num_d_elements = cfg.num_d_elements;
  return plan;
}

// The nested (chain) shape: segment i directly contains segment i+1.
// Layout (D's may never sit below an <A>-wrapped hole they are not meant
// to join, and in a chain a wrap joins *everything* below it):
//  * segment 0: in-segment pairs + A fillers + unwrapped hole;
//  * segment 1: all D fillers + unwrapped hole (above every wrap, so its
//    D's join nothing — and the lazy store can skip the whole segment);
//  * segments 2..: wraps around their child holes, W of them, plus the
//    remaining A fillers;
//  * last segment: the P cross-join D's; cross = W * P.
Result<JoinWorkloadPlan> BuildNested(const JoinWorkloadConfig& cfg,
                                     uint64_t cross_target, uint64_t joins) {
  JoinWorkloadPlan plan;
  const uint32_t chain = cfg.num_segments;
  if (cross_target > 0 && chain < 4) {
    return Status::InvalidArgument(
        "nested cross-segment joins need at least 4 segments");
  }
  const uint64_t max_wraps = chain >= 4 ? chain - 3 : 0;
  uint64_t wraps = 0;
  uint64_t cross_d = 0;
  if (cross_target > 0) {
    cross_d = (cross_target + max_wraps - 1) / max_wraps;  // ceil
    wraps = static_cast<uint64_t>(std::llround(
        static_cast<double>(cross_target) / static_cast<double>(cross_d)));
    wraps = std::clamp<uint64_t>(wraps, 1, max_wraps);
  }
  const uint64_t cross = wraps * cross_d;
  const uint64_t inseg = joins > cross ? joins - cross : 0;
  const uint64_t a_used = inseg + wraps;
  const uint64_t d_used = inseg + cross_d;
  if (a_used > cfg.num_a_elements) {
    return Status::InvalidArgument(StringPrintf(
        "num_a_elements too small: need %llu",
        static_cast<unsigned long long>(a_used)));
  }
  if (d_used > cfg.num_d_elements) {
    return Status::InvalidArgument(StringPrintf(
        "num_d_elements too small: need %llu",
        static_cast<unsigned long long>(d_used)));
  }
  // A fillers spread over every segment except the D-filler one (index 1).
  std::vector<uint64_t> a_fill =
      SplitEvenly(cfg.num_a_elements - a_used, chain > 1 ? chain - 1 : 1);
  const uint64_t d_fill = cfg.num_d_elements - d_used;

  uint64_t next_gp = 0;
  size_t a_cursor = 0;
  for (uint32_t i = 0; i < chain; ++i) {
    const bool last = (i + 1 == chain);
    // Wraps occupy segments 2..2+wraps-1.
    const bool wrap_here = !last && i >= 2 && (i - 2) < wraps;
    std::string text = "<seg>";
    if (i == 0) {
      EmitInSegmentPairs(&text, inseg);
      EmitFillers(&text, a_fill[a_cursor++], 0);
    } else if (i == 1 && chain > 1) {
      EmitFillers(&text, 0, d_fill);
    } else if (last) {
      for (uint64_t k = 0; k < cross_d; ++k) text.append("<D/>");
      EmitFillers(&text, a_fill[a_cursor++], 0);
    } else {
      EmitFillers(&text, a_fill[a_cursor++], 0);
    }
    uint64_t hole_offset = 0;
    if (!last) {
      text.append(wrap_here ? "<A>" : "<W>");
      hole_offset = text.size();
      text.append(wrap_here ? "</A>" : "</W>");
    }
    text.append("</seg>");
    plan.insertions.push_back(SegmentInsertion{std::move(text), next_gp});
    next_gp += hole_offset;
  }

  plan.in_segment_joins = inseg;
  plan.cross_segment_joins = cross;
  plan.num_a_elements = cfg.num_a_elements;
  plan.num_d_elements = cfg.num_d_elements;
  return plan;
}

}  // namespace

Result<JoinWorkloadPlan> BuildJoinWorkload(const JoinWorkloadConfig& cfg) {
  if (cfg.num_segments < 3) {
    return Status::InvalidArgument("need at least 3 segments");
  }
  if (cfg.cross_fraction < 0.0 || cfg.cross_fraction > 1.0) {
    return Status::InvalidArgument("cross_fraction must be in [0,1]");
  }
  const uint64_t cross = static_cast<uint64_t>(
      std::llround(cfg.cross_fraction * static_cast<double>(cfg.total_joins)));
  const uint64_t inseg = cfg.total_joins - cross;
  switch (cfg.shape) {
    case ErTreeShape::kBalanced:
      return BuildBalanced(cfg, cross, inseg);
    case ErTreeShape::kNested:
      return BuildNested(cfg, cross, cfg.total_joins);
  }
  return Status::InvalidArgument("unknown ER-tree shape");
}

Status ApplyPlan(LazyDatabase* db, std::span<const SegmentInsertion> plan) {
  std::vector<UpdateOp> ops;
  ops.reserve(plan.size());
  for (const SegmentInsertion& s : plan) {
    ops.push_back(UpdateOp::Insert(s.text, s.gp));
  }
  return db->ApplyBatch(ops).status();
}

}  // namespace lazyxml
