#include "core/query_facade.h"

#include <algorithm>

#include "core/global_converter.h"

namespace lazyxml {

Result<std::vector<JoinPair>> QueryFacade::JoinGlobal(
    std::string_view ancestor_tag, std::string_view descendant_tag,
    const LazyJoinOptions& options) {
  LAZYXML_ASSIGN_OR_RETURN(LazyJoinResult lazy,
                           JoinByName(ancestor_tag, descendant_tag, options));
  const UpdateLog& log = update_log();
  GlobalConverter conv;
  std::vector<JoinPair> out;
  out.reserve(lazy.pairs.size());
  for (const LazyJoinPair& p : lazy.pairs) {
    const SegmentNode* a = log.NodeOf(p.ancestor_sid);
    const SegmentNode* d = log.NodeOf(p.descendant_sid);
    if (a == nullptr || d == nullptr) {
      return Status::NotFound("join pair references a dead segment");
    }
    out.push_back(JoinPair{conv.ToGlobal(*a, p.ancestor_start, true),
                           conv.ToGlobal(*d, p.descendant_start, true)});
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<std::vector<GlobalElement>> QueryFacade::MaterializeGlobalElements(
    std::string_view tag) {
  LAZYXML_RETURN_NOT_OK(Freeze());
  const UpdateLog& log = update_log();
  auto tid_r = tag_dict().Lookup(tag);
  if (!tid_r.ok()) return std::vector<GlobalElement>{};
  const TagId tid = tid_r.ValueOrDie();
  GlobalConverter conv;
  std::vector<GlobalElement> out;
  for (const TagListEntry& e : log.tag_list().EntriesFor(tid)) {
    SegmentNode* node = log.NodeOf(e.sid());
    if (node == nullptr) {
      return Status::Internal("tag-list references a dead segment");
    }
    ElementScan scan = GetScan(tid, e.sid());
    for (const LocalElement& el : *scan) out.push_back(conv.ToGlobal(*node, el));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lazyxml
