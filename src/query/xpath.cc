#include "query/xpath.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/strings.h"
#include "join/path_stack.h"
#include "query/query_eval.h"
#include "xml/scanner.h"

namespace lazyxml {

namespace {

// ---------------------------------------------------------------------------
// Parser

struct Parser {
  std::string_view s;
  size_t pos = 0;

  Status Error(const char* what) const {
    return Status::InvalidArgument(
        StringPrintf("xpath: %s at offset %zu", what, pos));
  }

  bool AtEnd() const { return pos >= s.size(); }
  char Peek() const { return s[pos]; }

  /// axis := '//' | '/'. Sets *descendant on success.
  bool TryAxis(bool* descendant) {
    if (AtEnd() || s[pos] != '/') return false;
    if (pos + 1 < s.size() && s[pos + 1] == '/') {
      pos += 2;
      *descendant = true;
    } else {
      pos += 1;
      *descendant = false;
    }
    return true;
  }

  Result<std::vector<XPathStep>> ParsePath(size_t depth) {
    if (depth > kMaxXPathPredicateDepth) {
      return Error("predicates nested too deeply");
    }
    std::vector<XPathStep> steps;
    // Optional leading axis. Omitted means descendant — at top level the
    // first step's axis is ignored anyway, inside a predicate it selects
    // the first hop from the context element.
    bool axis_desc = true;
    TryAxis(&axis_desc);
    for (;;) {
      if (steps.size() >= kMaxXPathSteps) return Error("too many steps");
      XPathStep step;
      step.descendant_axis = axis_desc;
      if (AtEnd()) return Error("expected a name test");
      if (Peek() == '*') {
        step.wildcard = true;
        ++pos;
      } else if (IsNameStartChar(Peek())) {
        const size_t begin = pos;
        while (!AtEnd() && IsNameChar(Peek())) ++pos;
        step.name.assign(s.substr(begin, pos - begin));
      } else {
        return Error("expected a name test");
      }
      while (!AtEnd() && Peek() == '[') {
        ++pos;
        LAZYXML_ASSIGN_OR_RETURN(std::vector<XPathStep> pred,
                                 ParsePath(depth + 1));
        if (AtEnd() || Peek() != ']') return Error("expected ']'");
        ++pos;
        step.predicates.push_back(std::move(pred));
      }
      steps.push_back(std::move(step));
      if (AtEnd() || Peek() == ']') break;
      if (!TryAxis(&axis_desc)) return Error("expected '/' or '//'");
    }
    return steps;
  }
};

void FormatSteps(const std::vector<XPathStep>& steps, bool leading_axis,
                 std::string* out) {
  for (size_t i = 0; i < steps.size(); ++i) {
    if (i > 0 || leading_axis) {
      out->append(steps[i].descendant_axis ? "//" : "/");
    }
    if (steps[i].wildcard) {
      out->push_back('*');
    } else {
      out->append(steps[i].name);
    }
    for (const auto& pred : steps[i].predicates) {
      out->push_back('[');
      // Always print the predicate's leading axis: '[x]' parses as
      // '[//x]', so printing it makes the round trip canonical.
      FormatSteps(pred, true, out);
      out->push_back(']');
    }
  }
}

/// PATH and TWIG admit no wildcards; PATH admits no predicates either.
Status CheckSubset(QuerySyntax syntax, const std::vector<XPathStep>& steps) {
  for (const XPathStep& step : steps) {
    if (step.wildcard) {
      return Status::InvalidArgument(
          "wildcards need the XPATH syntax (PATH and TWIG name every step)");
    }
    if (syntax == QuerySyntax::kPath && !step.predicates.empty()) {
      return Status::InvalidArgument(
          "predicates need the TWIG or XPATH syntax");
    }
    for (const auto& pred : step.predicates) {
      LAZYXML_RETURN_NOT_OK(CheckSubset(syntax, pred));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Naive oracle

struct NaiveNode {
  GlobalElement elem;
  TagId tid = kInvalidTagId;
  size_t parent = SIZE_MAX;
  size_t subtree_end = 0;  ///< one past the last node in the subtree
};

bool NaiveTagMatches(const TagDict& dict, TagId tid, const XPathStep& step) {
  return step.wildcard || dict.Name(tid) == step.name;
}

/// The oracle's predicate walk. Without a memo, asking whether a chain
/// hangs below a node tries every placement of the remaining steps on
/// the nodes below it, C(depth, steps) of them when none succeeds; one
/// cell per (step list, step index, node) bounds it by nodes² × steps.
class NaiveWalk {
 public:
  NaiveWalk(const std::vector<NaiveNode>& nodes, const TagDict& dict)
      : nodes_(nodes), dict_(dict) {}

  bool PredsHold(size_t n, const XPathStep& step) {
    for (const auto& pred : step.predicates) {
      if (!ChainBelow(n, pred, 0)) return false;
    }
    return true;
  }

 private:
  enum : uint8_t { kUnknown = 0, kNo = 1, kYes = 2 };

  /// True when some chain matching steps[idx..] hangs below node `n`.
  bool ChainBelow(size_t n, const std::vector<XPathStep>& steps, size_t idx) {
    if (idx == steps.size()) return true;
    std::vector<uint8_t>& cells = memo_[{&steps, idx}];
    if (cells.empty()) cells.assign(nodes_.size(), kUnknown);
    if (cells[n] != kUnknown) return cells[n] == kYes;
    const XPathStep& step = steps[idx];
    bool found = false;
    for (size_t c = n + 1; c < nodes_[n].subtree_end && !found; ++c) {
      if (!step.descendant_axis && nodes_[c].parent != n) continue;
      found = NaiveTagMatches(dict_, nodes_[c].tid, step) &&
              PredsHold(c, step) && ChainBelow(c, steps, idx + 1);
    }
    // std::map insertions by the recursion keep `cells` valid.
    cells[n] = found ? kYes : kNo;
    return found;
  }

  const std::vector<NaiveNode>& nodes_;
  const TagDict& dict_;
  std::map<std::pair<const std::vector<XPathStep>*, size_t>,
           std::vector<uint8_t>>
      memo_;
};

}  // namespace

Result<std::vector<XPathStep>> ParseXPath(std::string_view expr) {
  if (expr.size() > kMaxXPathLength) {
    return Status::InvalidArgument("xpath: expression too long");
  }
  Parser p{expr};
  LAZYXML_ASSIGN_OR_RETURN(std::vector<XPathStep> steps, p.ParsePath(0));
  if (!p.AtEnd()) return p.Error("trailing characters");
  return steps;
}

std::string FormatXPath(const std::vector<XPathStep>& steps) {
  std::string out;
  FormatSteps(steps, false, &out);
  return out;
}

Result<std::vector<XPathStep>> ParseQuery(QuerySyntax syntax,
                                          std::string_view expr) {
  LAZYXML_ASSIGN_OR_RETURN(std::vector<XPathStep> steps, ParseXPath(expr));
  if (syntax != QuerySyntax::kXPath) {
    LAZYXML_RETURN_NOT_OK(CheckSubset(syntax, steps));
  }
  return steps;
}

Result<XPathResult> EvaluateXPath(QueryFacade* db,
                                  const std::vector<XPathStep>& steps,
                                  const LazyJoinOptions& options) {
  return EvaluateSteps(db, steps, options, /*global=*/true);
}

Result<XPathResult> EvaluateXPath(QueryFacade* db, std::string_view expr,
                                  const LazyJoinOptions& options) {
  return EvaluateQuery(db, QuerySyntax::kXPath, expr, options);
}

Result<XPathResult> EvaluateQuery(QueryFacade* db, QuerySyntax syntax,
                                  std::string_view expr,
                                  const LazyJoinOptions& options,
                                  size_t max_rows) {
  LAZYXML_ASSIGN_OR_RETURN(std::vector<XPathStep> steps,
                           ParseQuery(syntax, expr));
  return EvaluateSteps(db, steps, options, syntax == QuerySyntax::kXPath,
                       max_rows);
}

Result<std::vector<GlobalElement>> EvaluatePathHolistic(
    QueryFacade* db, const std::vector<XPathStep>& steps) {
  if (db == nullptr) {
    return Status::InvalidArgument("EvaluatePathHolistic: null database");
  }
  LAZYXML_RETURN_NOT_OK(CheckSubset(QuerySyntax::kPath, steps));
  std::vector<PathStackStep> prepared(steps.size());
  for (size_t i = 0; i < steps.size(); ++i) {
    LAZYXML_ASSIGN_OR_RETURN(prepared[i].elements,
                             db->MaterializeGlobalElements(steps[i].name));
    prepared[i].descendant_axis = steps[i].descendant_axis;
  }
  LAZYXML_ASSIGN_OR_RETURN(PathStackResult r, PathStack(prepared));
  return std::move(r.matches);
}

Result<std::vector<GlobalElement>> EvaluateXPathNaive(
    QueryFacade* db, const std::vector<XPathStep>& steps) {
  if (steps.empty()) {
    return Status::InvalidArgument("xpath: empty expression");
  }
  const TagDict& dict = db->tag_dict();
  std::vector<NaiveNode> nodes;
  for (TagId tid = 0; tid < dict.size(); ++tid) {
    LAZYXML_ASSIGN_OR_RETURN(std::vector<GlobalElement> elems,
                             db->MaterializeGlobalElements(dict.Name(tid)));
    for (const GlobalElement& e : elems) {
      nodes.push_back(NaiveNode{e, tid, SIZE_MAX, 0});
    }
  }
  // Preorder: by start ascending; containers before their first child
  // (equal starts impossible — each element owns its '<' byte).
  std::sort(nodes.begin(), nodes.end(),
            [](const NaiveNode& a, const NaiveNode& b) {
              return a.elem.start < b.elem.start;
            });
  {
    std::vector<size_t> stack;
    for (size_t i = 0; i < nodes.size(); ++i) {
      while (!stack.empty() &&
             nodes[stack.back()].elem.end <= nodes[i].elem.start) {
        nodes[stack.back()].subtree_end = i;
        stack.pop_back();
      }
      nodes[i].parent = stack.empty() ? SIZE_MAX : stack.back();
      stack.push_back(i);
    }
    while (!stack.empty()) {
      nodes[stack.back()].subtree_end = nodes.size();
      stack.pop_back();
    }
  }

  NaiveWalk walk(nodes, dict);
  std::vector<uint8_t> cur(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    cur[i] = NaiveTagMatches(dict, nodes[i].tid, steps[0]) &&
             walk.PredsHold(i, steps[0]);
  }
  for (size_t si = 1; si < steps.size(); ++si) {
    const XPathStep& step = steps[si];
    std::vector<uint8_t> next(nodes.size(), 0);
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (!NaiveTagMatches(dict, nodes[i].tid, step)) continue;
      bool chained = false;
      if (step.descendant_axis) {
        for (size_t a = nodes[i].parent; a != SIZE_MAX; a = nodes[a].parent) {
          if (cur[a]) {
            chained = true;
            break;
          }
        }
      } else {
        chained = nodes[i].parent != SIZE_MAX && cur[nodes[i].parent];
      }
      if (chained && walk.PredsHold(i, step)) next[i] = 1;
    }
    cur.swap(next);
  }

  std::vector<GlobalElement> out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (cur[i]) out.push_back(nodes[i].elem);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lazyxml
