// The set-at-a-time query evaluator behind PATH, TWIG and XPATH
// (query/xpath.h), working in lazy coordinates from start to finish.
//
// Element sets. A pattern position holds one element set per candidate
// tag. A set is either "every element of the tag" — a flag, with no
// element list and no membership test — or a vector of lazy identities
// (segment id, frozen start) sorted by (sid, start) and distinct.
//
// Semi-joins. Each axis step and each predicate is a semi-join over the
// Lazy-Join pair vector of one (context tag, step tag) edge; a query
// joins each distinct edge once. Membership tests are finger searches in
// the sorted sets: narrowed to the probed segment's run (remembered while
// consecutive pairs stay in that segment), they gallop from the last hit,
// so the mostly ascending probes of one segment's pairs cost O(log
// distance) each instead of a bisection of the run. Forward steps collect
// descendants; predicates (evaluated bottom-up, so a nested chain is a
// cascade of the same semi-join) mark ancestors in a byte mask over the
// context set, or collect them when the context is still "every
// element". No hash set is built and no element is allocated on its own.
//
// Pair order. The evaluator is correct for any pair order; it relies on
// the order LazyJoin documents (core/lazy_join.h) for speed only, in one
// place: the normalizing merge (SortRefs in query_eval.cc) that turns
// collected identities into a sorted set. Because a descendant segment's
// pairs are contiguous and mostly ascending, that merge sorts short
// per-segment runs and orders the runs by sid; a segment split over two
// runs falls back to one full sort.
//
// Summary-exact steps. With a fresh path summary, a forward step whose
// earlier steps carry no predicate is answered by the summary alone when
// its matched summary nodes hold every live element of a candidate tag:
// the step's set for that tag is "every element", and no join runs
// (docs/PATH_SUMMARY.md has the argument). A predicate the summary
// proves true for every element of the step (strong edges, re-proved
// with one join when unknown, or implied by the path below) is skipped
// and counts as absent here.
//
// Listing. Every answer carries its exact count. A caller may ask for
// only the first N rows; when the answer is "every element" of one tag
// (PATH and TWIG have no wildcards, so one tag at most), the count is the
// sum of the tag-list counts and only the N rows of the lowest-sid runs
// are built, walked in sid order so they need no sort. XPATH still builds
// and converts every row: global order needs all of them.
//
// Global offsets. Nothing above computes a global label. When the reply
// needs them (XPATH), the final sets are converted with one
// GlobalConverter (core/global_converter.h): the matching scan record
// supplies each element's end and level, and two binary searches place
// its start and end.

#ifndef LAZYXML_QUERY_QUERY_EVAL_H_
#define LAZYXML_QUERY_QUERY_EVAL_H_

#include <vector>

#include "common/result.h"
#include "core/query_facade.h"
#include "query/xpath.h"

namespace lazyxml {

/// Evaluates parsed `steps` over `db`. Sets the exact `count` and fills
/// the first `max_rows` `refs`, and `elements` too when `global` is set.
Result<XPathResult> EvaluateSteps(QueryFacade* db,
                                  const std::vector<XPathStep>& steps,
                                  const LazyJoinOptions& options, bool global,
                                  size_t max_rows = kAllRows);

/// Sorts `refs` by (sid, start) and removes duplicates (the normalizing
/// merge described above; exposed for tests).
void SortRefs(std::vector<LazyElementRef>* refs);

}  // namespace lazyxml

#endif  // LAZYXML_QUERY_QUERY_EVAL_H_
