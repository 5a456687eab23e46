// Oracle: answers the benchmark's queries from the plain document text,
// without the lazy store. The text is indexed once by the traditional
// global-label index (RelabelingIndex); each query's steps are evaluated
// as a chain of Stack-Tree-Desc semi-joins over those element lists.
//
// PATH, TWIG and XPATH share one semantics (query/xpath.h): the answer is
// the set of distinct elements matched by the last main step, and the
// server's COUNT is its size.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "join/global_element.h"
#include "labeling/relabeling_index.h"
#include "query/xpath.h"

namespace perfbench {

class Oracle {
 public:
  /// Indexes `document` (a sequence of well-formed top-level documents).
  static lazyxml::Result<Oracle> Build(std::string_view document);

  /// Number of distinct elements `expr` selects. PATH and TWIG
  /// expressions are valid XPath-subset expressions with the same meaning.
  lazyxml::Result<uint64_t> Count(std::string_view expr) const;

 private:
  using Elements = std::vector<lazyxml::GlobalElement>;

  /// Elements passing `step`'s name test and predicates.
  Elements Matching(const lazyxml::XPathStep& step) const;
  /// Elements of `step` with a parent (child axis) or an ancestor
  /// (descendant axis) in `context`.
  Elements Forward(const Elements& context,
                   const lazyxml::XPathStep& step) const;
  /// Elements of `context` from which the relative `path` matches.
  Elements WithPredicate(const Elements& context,
                         const std::vector<lazyxml::XPathStep>& path) const;

  std::unique_ptr<lazyxml::RelabelingIndex> index_;
  Elements all_;  // every element in document order, for wildcard steps
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
