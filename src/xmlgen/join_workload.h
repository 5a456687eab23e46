// JoinWorkloadBuilder: segment-insertion plans with a controlled
// percentage of cross-segment joins.
//
// Reproduces the paper's first group of experiments (§5.3, Fig. 12): fix
// the number of segments and the numbers of A- and D-elements, then vary
// the fraction of A//D join pairs that cross segment boundaries, over a
// nested (chain) or balanced (star) ER-tree.
//
// Construction:
//  * in-segment joins: <A><D/></A> pairs placed in the top segment — one
//    join each, invisible to every other segment;
//  * cross-segment joins: an <A> element wrapping a child segment's
//    insertion hole is an ancestor of every element in that child (paper
//    Prop. 3), so wrapping W holes over P reachable D-elements yields W*P
//    cross pairs;
//  * element-count padding: inert <A></A> / <D/> fillers inside an <F>
//    block that neither contain nor are contained by anything that joins.

#ifndef LAZYXML_XMLGEN_JOIN_WORKLOAD_H_
#define LAZYXML_XMLGEN_JOIN_WORKLOAD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/lazy_database.h"

namespace lazyxml {

/// Shape of the ER-tree the plan produces.
enum class ErTreeShape {
  kNested,    ///< chain: segment i directly contains segment i+1 (worst case)
  kBalanced,  ///< star: every segment a direct child of the first one
};

/// Human-readable shape name ("nested"/"balanced").
const char* ErTreeShapeName(ErTreeShape shape);

/// Knobs for the Fig. 12 workload.
struct JoinWorkloadConfig {
  /// Number of segments (>= 3: top + at least one child + D-carrier).
  uint32_t num_segments = 50;
  ErTreeShape shape = ErTreeShape::kBalanced;
  /// Total number of A//D join result pairs to aim for.
  uint64_t total_joins = 10000;
  /// Fraction of joins that must be cross-segment, in [0,1].
  double cross_fraction = 0.2;
  /// Total A-element / D-element targets; must be large enough for the
  /// joins requested (builder checks).
  uint64_t num_a_elements = 20000;
  uint64_t num_d_elements = 20000;
};

/// One step of a segment-insertion plan: insert `text` at global position
/// `gp` of the current super document.
struct SegmentInsertion {
  std::string text;
  uint64_t gp = 0;
};

/// The plan plus the exactly-achieved workload statistics (the nested
/// shape cannot hit every cross-join count exactly; the builder reports
/// what it built).
struct JoinWorkloadPlan {
  std::vector<SegmentInsertion> insertions;
  uint64_t in_segment_joins = 0;
  uint64_t cross_segment_joins = 0;
  uint64_t num_a_elements = 0;
  uint64_t num_d_elements = 0;

  uint64_t total_joins() const { return in_segment_joins + cross_segment_joins; }
  double achieved_cross_fraction() const {
    const uint64_t t = total_joins();
    return t == 0 ? 0.0 : static_cast<double>(cross_segment_joins) / t;
  }
};

/// Builds the insertion plan. Tags used: "A", "D", "seg" (segment roots),
/// "F" (filler container), "W" (non-A hole wrappers).
Result<JoinWorkloadPlan> BuildJoinWorkload(const JoinWorkloadConfig& config);

/// Applies a whole insertion plan (generator / chopper output) to `db`
/// through the batched path — one pure-insert ApplyBatch.
Status ApplyPlan(LazyDatabase* db, std::span<const SegmentInsertion> plan);

}  // namespace lazyxml

#endif  // LAZYXML_XMLGEN_JOIN_WORKLOAD_H_
