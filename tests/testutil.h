// Shared test helpers: a naive string-splicing "shadow document" model of
// the super document, and oracle joins computed straight from parsed text.
// The lazy structures are validated against these throughout the suite.

#ifndef LAZYXML_TESTS_TESTUTIL_H_
#define LAZYXML_TESTS_TESTUTIL_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "join/global_element.h"
#include "join/stack_tree.h"
#include "query/xpath.h"
#include "xml/parser.h"
#include "xml/tag_dict.h"
#include "xmlgen/join_workload.h"

namespace lazyxml {
namespace testutil {

/// Applies an insertion plan by naive text splicing (the model the paper's
/// "documents are plain text files" story implies).
inline std::string ApplyPlanToString(std::span<const SegmentInsertion> plan) {
  std::string doc;
  for (const SegmentInsertion& ins : plan) {
    doc.insert(static_cast<size_t>(ins.gp), ins.text);
  }
  return doc;
}

/// Splices one insertion into an existing shadow document.
inline void SpliceInsert(std::string* doc, std::string_view text,
                         uint64_t gp) {
  doc->insert(static_cast<size_t>(gp), text);
}

/// Splices one removal out of an existing shadow document.
inline void SpliceRemove(std::string* doc, uint64_t gp, uint64_t len) {
  doc->erase(static_cast<size_t>(gp), static_cast<size_t>(len));
}

/// All elements with the given tag, global coordinates, document order —
/// parsed straight from the text (the ground truth).
inline std::vector<GlobalElement> ElementsOf(std::string_view doc,
                                             std::string_view tag) {
  TagDict dict;
  auto parsed = ParseFragment(doc, &dict);
  std::vector<GlobalElement> out;
  if (!parsed.ok()) return out;
  auto tid = dict.Lookup(tag);
  if (!tid.ok()) return out;
  for (const ElementRecord& r : parsed.ValueOrDie().records) {
    if (r.tid == tid.ValueOrDie()) {
      out.push_back(GlobalElement{r.start, r.end, r.level});
    }
  }
  return out;
}

/// A structural query through `handle`'s read entry Query(fn) — a
/// ConcurrentLazyDatabase or a ReadView.
template <typename Handle>
Result<XPathResult> Xpath(Handle& handle, std::string_view expr,
                          QuerySyntax syntax = QuerySyntax::kXPath) {
  return handle.Query(
      [&](QueryFacade& f) { return EvaluateQuery(&f, syntax, expr); });
}

/// Oracle A//D join over the raw text.
inline std::vector<JoinPair> OracleJoin(std::string_view doc,
                                        std::string_view anc,
                                        std::string_view desc,
                                        bool parent_child = false) {
  StructuralJoinOptions opts;
  opts.parent_child = parent_child;
  return NaiveStructuralJoin(ElementsOf(doc, anc), ElementsOf(doc, desc),
                             opts);
}

}  // namespace testutil
}  // namespace lazyxml

#endif  // LAZYXML_TESTS_TESTUTIL_H_
