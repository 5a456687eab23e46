// Structural queries over the lazy store: one grammar, one evaluator,
// three reply syntaxes.
//
// Grammar (XPath subset):
//
//   xpath     := axis? step (axis step)*
//   axis      := '//' | '/'
//   step      := nametest predicate*
//   nametest  := '*' | tagname
//   predicate := '[' xpath ']'            (structural existence test)
//
// Tag names follow the XML scanner (xml/scanner.h IsNameStartChar /
// IsNameChar), so every tag the store can hold can be queried. The axis
// *into the first step* is ignored: the first step selects all elements
// of its name test anywhere in the super document (every query is
// implicitly rooted at the dummy root with a descendant axis). A missing
// axis means descendant, so inside a predicate 'person[profile]' ==
// 'person[.//profile]' in full XPath.
//
// The PATH and TWIG verbs are syntaxes of the same language (QuerySyntax):
// PATH admits neither predicates nor wildcards ("person//profile/interest"),
// TWIG admits predicates but no wildcards ("person[profile]//interest").
// All three parse into XPathSteps and run through one set-at-a-time
// evaluator in lazy coordinates (query/query_eval.h). Only XPATH replies
// carry global `start end` offsets, and they are computed for the result
// rows alone, by a batched converter (core/global_converter.h).
//
// Before any join runs, the whole pattern (predicates included) is matched
// against the path summary (core/path_summary.h) when one is fresh:
//  * a pattern reaching no summary node is answered empty with ZERO tag
//    list scans (XPathResult::summary_empty);
//  * wildcard steps expand to the tags the summary proved can occur at
//    that pattern position with a match of the next step below them
//    (without a summary: every tag);
//  * a step after predicate-free steps whose summary match holds every
//    element of a tag selects all of them without a join;
//  * a predicate the summary proves true for every element the step's
//    set can hold (strong edges, or implied by the rest of the path) is
//    skipped and counts as absent;
//  * predicates are reordered most-selective-first by the summary's
//    qualifying counts (pure existence tests commute).
// The result is byte-identical with and without the summary — pruning
// only removes provably pairless work (docs/PATH_SUMMARY.md).

#ifndef LAZYXML_QUERY_XPATH_H_
#define LAZYXML_QUERY_XPATH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/query_facade.h"
#include "join/global_element.h"

namespace lazyxml {

/// One step of a parsed XPath expression.
struct XPathStep {
  /// Name test; empty iff `wildcard`.
  std::string name;
  bool wildcard = false;
  /// Axis leading into this step: true for '//', false for '/'. Ignored
  /// on the first step of the outermost path; inside predicates the
  /// first step's axis is relative to the context element.
  bool descendant_axis = true;
  /// Structural predicates, each a relative path evaluated for
  /// existence at this step's elements.
  std::vector<std::vector<XPathStep>> predicates;
};

/// The three query verbs: one language, three admitted subsets and reply
/// formats (PATH/TWIG list `sid start`, XPATH lists `start end`).
enum class QuerySyntax { kPath, kTwig, kXPath };

/// Parse limits (inputs come over the wire / from the fuzzer).
inline constexpr size_t kMaxXPathLength = 4096;
inline constexpr size_t kMaxXPathPredicateDepth = 16;
inline constexpr size_t kMaxXPathSteps = 256;

/// Parses the grammar above; InvalidArgument with a position-annotated
/// message on malformed input.
Result<std::vector<XPathStep>> ParseXPath(std::string_view expr);

/// Parses `expr` as `syntax`: the XPath grammar, minus wildcards for PATH
/// and TWIG and minus predicates for PATH (InvalidArgument otherwise).
Result<std::vector<XPathStep>> ParseQuery(QuerySyntax syntax,
                                          std::string_view expr);

/// Serializes a parsed path back to canonical text (tests/fuzzing:
/// parse(Format(p)) == p).
std::string FormatXPath(const std::vector<XPathStep>& steps);

/// An element in lazy identity.
struct LazyElementRef {
  SegmentId sid = 0;
  uint64_t start = 0;

  bool operator<(const LazyElementRef& o) const {
    return sid != o.sid ? sid < o.sid : start < o.start;
  }
  bool operator==(const LazyElementRef& o) const {
    return sid == o.sid && start == o.start;
  }
};

/// `max_rows` value that lists every matching element.
inline constexpr size_t kAllRows = SIZE_MAX;

/// Query evaluation result.
struct XPathResult {
  /// Matching final-step elements: exactly `count`, listed or not.
  uint64_t count = 0;
  /// The first min(count, max_rows) matching final-step elements in lazy
  /// identity, sorted by (sid, start), distinct — what PATH and TWIG
  /// replies list.
  std::vector<LazyElementRef> refs;
  /// The first min(count, max_rows) matching elements in global
  /// coordinates, sorted. Filled for the XPATH syntax only (global
  /// offsets are computed for replies alone).
  std::vector<GlobalElement> elements;
  /// Distinct Lazy-Joins executed: the work done, so 0 when the summary
  /// answered alone (an empty proof, or summary-exact steps).
  uint64_t joins_executed = 0;
  /// Join pairs materialized across all joins (work measure; 0 when no
  /// join ran).
  uint64_t intermediate_pairs = 0;
  /// True when the path summary proved the answer empty before any tag
  /// list was scanned.
  bool summary_empty = false;
  /// Summary-table cells and nodes visited while matching the pattern
  /// and proving its predicates (work measure; bounded by a small
  /// multiple of summary nodes x pattern steps).
  uint64_t summary_visits = 0;
  /// Aggregated pruning counters from the underlying joins (see
  /// LazyJoinStats).
  uint64_t segments_pruned = 0;
  uint64_t elements_skipped = 0;
};

/// Evaluates `steps` over `db`; fills `refs` and `elements`.
Result<XPathResult> EvaluateXPath(QueryFacade* db,
                                  const std::vector<XPathStep>& steps,
                                  const LazyJoinOptions& options = {});

/// Convenience: parse + evaluate (XPATH syntax).
Result<XPathResult> EvaluateXPath(QueryFacade* db, std::string_view expr,
                                  const LazyJoinOptions& options = {});

/// Parses `expr` as `syntax` and evaluates it: `refs` always, `elements`
/// only for QuerySyntax::kXPath, each cut to the first `max_rows` (the
/// server passes its per-session listing cap; `count` stays exact). The
/// one entry point of all three verbs.
Result<XPathResult> EvaluateQuery(QueryFacade* db, QuerySyntax syntax,
                                  std::string_view expr,
                                  const LazyJoinOptions& options = {},
                                  size_t max_rows = kAllRows);

/// Alternative strategy for predicate- and wildcard-free paths: PathStack
/// (Bruno et al. [2]) over element lists materialized in global
/// coordinates — one merge pass, no intermediate pair lists. Returns the
/// matching final-step elements with global labels. Raced against the
/// evaluator in bench_ablation.
Result<std::vector<GlobalElement>> EvaluatePathHolistic(
    QueryFacade* db, const std::vector<XPathStep>& steps);

/// Oracle: evaluates `steps` by materializing every element of the super
/// document and walking the tree directly — no joins, no summary, no
/// pruning. Quadratic; for tests and the fuzz compile-oracle only.
Result<std::vector<GlobalElement>> EvaluateXPathNaive(
    QueryFacade* db, const std::vector<XPathStep>& steps);

}  // namespace lazyxml

#endif  // LAZYXML_QUERY_XPATH_H_
