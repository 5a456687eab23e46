// Shared helpers for the per-figure benchmark binaries.
//
// Measurement conventions (mirroring the paper's §5 setup):
//  * LD — one LazyDatabase per fixture, everything maintained; a query is
//    just Lazy-Join.
//  * LS — the database is rebuilt per sample so that the tag-list really
//    is unsorted and the sid B+-tree really is absent at query time; the
//    timed query includes Freeze().
//  * STD — a traditional store: a global-label element index built once
//    (outside the timer); the timed query scans both element lists out of
//    the index and runs Stack-Tree-Desc, which is exactly what the
//    original algorithm pays.

#ifndef LAZYXML_BENCH_BENCH_UTIL_H_
#define LAZYXML_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "bench/metrics_hook.h"
#include "common/logging.h"
#include "core/lazy_database.h"
#include "join/stack_tree.h"
#include "labeling/relabeling_index.h"
#include "xmlgen/join_workload.h"

namespace lazyxml {
namespace bench {

/// Builds a LazyDatabase in `mode` from an insertion plan; aborts on error
/// (benchmarks have no error path).
inline std::unique_ptr<LazyDatabase> BuildDatabase(
    std::span<const SegmentInsertion> plan, LogMode mode) {
  LazyDatabaseOptions opts;
  opts.mode = mode;
  auto db = std::make_unique<LazyDatabase>(opts);
  Status s = ApplyPlan(db.get(), plan);
  LAZYXML_CHECK(s.ok());
  return db;
}

/// Applies a plan by plain text splicing (the on-disk document).
inline std::string PlanToText(std::span<const SegmentInsertion> plan) {
  std::string doc;
  for (const SegmentInsertion& ins : plan) {
    doc.insert(static_cast<size_t>(ins.gp), ins.text);
  }
  return doc;
}

/// Builds the traditional global-label element index over the document.
inline std::unique_ptr<RelabelingIndex> BuildTraditionalIndex(
    std::string_view document) {
  auto idx = std::make_unique<RelabelingIndex>();
  Status s = idx->BuildFromDocument(document);
  LAZYXML_CHECK(s.ok());
  return idx;
}

/// The timed body of the paper's STD baseline (§4: "existing structural
/// join algorithms can still be used... we first need to access the
/// SB-tree to get the global position of the segments"): materialize both
/// element lists in global coordinates out of the lazy store, then run
/// Stack-Tree-Desc. Lazy-Join's whole point is skipping this step.
inline size_t RunStdQuery(LazyDatabase* db, std::string_view anc,
                          std::string_view desc) {
  auto a = db->MaterializeGlobalElements(anc);
  auto d = db->MaterializeGlobalElements(desc);
  LAZYXML_CHECK(a.ok() && d.ok());
  return StackTreeDesc(a.ValueOrDie(), d.ValueOrDie()).size();
}

/// Extension series beyond the paper: Stack-Tree-Desc over a *traditional*
/// eagerly-maintained global-label index (which Fig. 16 shows is the
/// store you would not want to update). Lists are read straight from the
/// index, no materialization needed.
inline size_t RunStdIndexQuery(const RelabelingIndex& idx,
                               std::string_view anc, std::string_view desc) {
  auto a = idx.GetElements(anc);
  auto d = idx.GetElements(desc);
  if (!a.ok() || !d.ok()) return 0;
  return StackTreeDesc(a.ValueOrDie(), d.ValueOrDie()).size();
}

/// The timed body of a lazy query (LD: log already serviceable; LS: the
/// call freezes first, which is the point). Returns the pair count.
inline size_t RunLazyQuery(LazyDatabase* db, std::string_view anc,
                           std::string_view desc,
                           const LazyJoinOptions& options = {}) {
  auto r = db->JoinByName(anc, desc, options);
  LAZYXML_CHECK(r.ok());
  return r.ValueOrDie().pairs.size();
}

}  // namespace bench
}  // namespace lazyxml

#endif  // LAZYXML_BENCH_BENCH_UTIL_H_
