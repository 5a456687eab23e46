#include "oracle.h"

#include <algorithm>
#include <unordered_set>

#include "join/stack_tree.h"

namespace perfbench {

using lazyxml::GlobalElement;
using lazyxml::JoinPair;
using lazyxml::XPathStep;

namespace {

/// Keeps the elements of `from` whose start is in `starts`.
std::vector<GlobalElement> KeepStarts(const std::vector<GlobalElement>& from,
                                      const std::unordered_set<uint64_t>& starts) {
  std::vector<GlobalElement> out;
  for (const GlobalElement& e : from) {
    if (starts.count(e.start) != 0) out.push_back(e);
  }
  return out;
}

std::vector<JoinPair> Join(const std::vector<GlobalElement>& anc,
                           const std::vector<GlobalElement>& desc,
                           bool descendant_axis) {
  lazyxml::StructuralJoinOptions opts;
  opts.parent_child = !descendant_axis;
  return lazyxml::StackTreeDesc(anc, desc, opts);
}

}  // namespace

lazyxml::Result<Oracle> Oracle::Build(std::string_view document) {
  Oracle o;
  o.index_ = std::make_unique<lazyxml::RelabelingIndex>();
  LAZYXML_RETURN_NOT_OK(o.index_->BuildFromDocument(document));
  o.index_->ForEachElement([&o](const lazyxml::RelabeledElement& e) {
    o.all_.push_back(GlobalElement{e.start, e.end, e.level});
    return true;
  });
  std::sort(o.all_.begin(), o.all_.end());
  return o;
}

lazyxml::Result<uint64_t> Oracle::Count(std::string_view expr) const {
  LAZYXML_ASSIGN_OR_RETURN(std::vector<XPathStep> steps,
                           lazyxml::ParseXPath(expr));
  Elements ctx = Matching(steps[0]);
  for (size_t i = 1; i < steps.size(); ++i) ctx = Forward(ctx, steps[i]);
  return static_cast<uint64_t>(ctx.size());
}

Oracle::Elements Oracle::Matching(const XPathStep& step) const {
  Elements out;
  if (step.wildcard) {
    out = all_;
  } else {
    auto r = index_->GetElements(step.name);
    if (r.ok()) out = std::move(r).ValueOrDie();  // unknown tag: empty
  }
  for (const auto& pred : step.predicates) out = WithPredicate(out, pred);
  return out;
}

Oracle::Elements Oracle::Forward(const Elements& context,
                                 const XPathStep& step) const {
  const Elements cands = Matching(step);
  std::unordered_set<uint64_t> hit;
  for (const JoinPair& p : Join(context, cands, step.descendant_axis)) {
    hit.insert(p.descendant_start);
  }
  return KeepStarts(cands, hit);
}

Oracle::Elements Oracle::WithPredicate(
    const Elements& context, const std::vector<XPathStep>& path) const {
  // Backward: reachable[j] = elements of step j from which steps j+1.. match.
  Elements reachable = Matching(path.back());
  for (size_t j = path.size() - 1; j-- > 0;) {
    const Elements here = Matching(path[j]);
    std::unordered_set<uint64_t> hit;
    for (const JoinPair& p :
         Join(here, reachable, path[j + 1].descendant_axis)) {
      hit.insert(p.ancestor_start);
    }
    reachable = KeepStarts(here, hit);
  }
  std::unordered_set<uint64_t> hit;
  for (const JoinPair& p :
       Join(context, reachable, path.front().descendant_axis)) {
    hit.insert(p.ancestor_start);
  }
  return KeepStarts(context, hit);
}

}  // namespace perfbench
