// Shared checks for the query suites: every syntax's answer against the
// naive tree-walk oracle (EvaluateXPathNaive), with lazy identities mapped
// to global starts by the linear-walk SegmentNode::FrozenToGlobal.

#ifndef LAZYXML_TESTS_QUERY_QUERY_TEST_UTIL_H_
#define LAZYXML_TESTS_QUERY_QUERY_TEST_UTIL_H_

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_facade.h"
#include "query/xpath.h"

namespace lazyxml {
namespace testutil {

/// Global starts of lazy identities, sorted (oracle conversion).
inline std::vector<uint64_t> GlobalStarts(QueryFacade* db,
                                          const std::vector<LazyElementRef>& refs) {
  std::vector<uint64_t> out;
  for (const LazyElementRef& r : refs) {
    const SegmentNode* n = db->update_log().NodeOf(r.sid);
    EXPECT_NE(n, nullptr);
    if (n != nullptr) out.push_back(n->FrozenToGlobal(r.start, true));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Evaluates `expr` as `syntax` and expects it to equal the naive oracle:
/// the refs (all syntaxes) name exactly the oracle's elements, XPATH's
/// global elements equal the oracle's byte for byte, and the refs are
/// sorted and distinct. Returns the result for further assertions.
inline XPathResult ExpectMatchesNaive(QueryFacade* db, QuerySyntax syntax,
                                      std::string_view expr,
                                      const LazyJoinOptions& options = {}) {
  auto got = EvaluateQuery(db, syntax, expr, options);
  EXPECT_TRUE(got.ok()) << expr << ": " << got.status().ToString();
  auto steps = ParseXPath(expr);
  EXPECT_TRUE(steps.ok()) << expr;
  if (!got.ok() || !steps.ok()) return {};
  auto naive = EvaluateXPathNaive(db, steps.ValueOrDie());
  EXPECT_TRUE(naive.ok()) << expr;
  if (!naive.ok()) return {};
  XPathResult r = std::move(got).ValueOrDie();
  std::vector<uint64_t> want;
  for (const GlobalElement& e : naive.ValueOrDie()) want.push_back(e.start);
  EXPECT_EQ(GlobalStarts(db, r.refs), want) << expr;
  EXPECT_TRUE(std::is_sorted(r.refs.begin(), r.refs.end())) << expr;
  EXPECT_TRUE(std::adjacent_find(r.refs.begin(), r.refs.end()) ==
              r.refs.end())
      << expr;
  if (syntax == QuerySyntax::kXPath) {
    EXPECT_EQ(r.elements, naive.ValueOrDie()) << expr;
  } else {
    EXPECT_TRUE(r.elements.empty()) << expr;
  }
  return r;
}

}  // namespace testutil
}  // namespace lazyxml

#endif  // LAZYXML_TESTS_QUERY_QUERY_TEST_UTIL_H_
