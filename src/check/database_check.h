// Deep cross-structure consistency scrub of a LazyDatabase: ER-tree
// geometry, SB-tree agreement, element-index ↔ update-log ↔ tag-list ↔
// tag-dictionary agreement, interval nesting, and nesting-summary
// coverage. This is the in-memory half of the scrubber; the on-disk half
// (WAL/snapshot cross-consistency) lives in check/storage_check.h.
//
// Header-only on purpose: LazyDatabase::CheckInvariants() delegates here,
// and core must not link against lazyxml_check (which depends on core).

#ifndef LAZYXML_CHECK_DATABASE_CHECK_H_
#define LAZYXML_CHECK_DATABASE_CHECK_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "check/btree_check.h"
#include "check/check_report.h"
#include "core/lazy_database.h"

namespace lazyxml {
namespace check {

namespace internal {

/// Walks the ER-tree from the dummy root, grading per-node geometry.
/// Returns the set of reachable sids.
inline std::set<SegmentId> CheckErTree(const UpdateLog& log,
                                       CheckReport* report) {
  std::set<SegmentId> reachable;
  const SegmentNode* root = log.root();
  if (root == nullptr) {
    report->AddError("update_log", "missing-root", "dummy root is null");
    return reachable;
  }
  if (root->sid != kRootSegmentId) {
    std::ostringstream os;
    os << "dummy root carries sid " << root->sid;
    report->AddError("update_log", "root-sid", os.str(), root->sid);
  }
  if (root->parent != nullptr) {
    report->AddError("update_log", "root-parent", "dummy root has a parent",
                     root->sid);
  }

  std::vector<const SegmentNode*> work{root};
  while (!work.empty()) {
    const SegmentNode* n = work.back();
    work.pop_back();
    report->BumpObjectsScanned();
    if (!reachable.insert(n->sid).second) {
      std::ostringstream os;
      os << "segment " << n->sid << " appears twice in the ER-tree";
      report->AddError("update_log", "duplicate-sid", os.str(), n->sid);
      continue;  // do not re-walk a shared subtree
    }
    // Gaps: disjoint, ascending, strictly ordered (AddGap merges
    // adjacent intervals, so touching gaps mean a missed merge).
    for (size_t i = 0; i < n->gaps.size(); ++i) {
      if (n->gaps[i].begin >= n->gaps[i].end) {
        std::ostringstream os;
        os << "segment " << n->sid << " gap " << i << " is empty or inverted ["
           << n->gaps[i].begin << ", " << n->gaps[i].end << ")";
        report->AddError("update_log", "gap-empty", os.str(), n->sid);
      }
      if (i > 0 && n->gaps[i - 1].end >= n->gaps[i].begin) {
        std::ostringstream os;
        os << "segment " << n->sid << " gaps " << (i - 1) << " and " << i
           << " overlap or touch";
        report->AddError("update_log", "gap-overlap", os.str(), n->sid);
      }
    }
    // distinct_tags ascending and unique.
    for (size_t i = 1; i < n->distinct_tags.size(); ++i) {
      if (n->distinct_tags[i - 1] >= n->distinct_tags[i]) {
        std::ostringstream os;
        os << "segment " << n->sid << " distinct_tags not strictly ascending";
        report->AddError("update_log", "distinct-tags-order", os.str(),
                         n->sid);
        break;
      }
    }
    // Children: parent links, position order, containment, disjointness,
    // monotone frozen positions, level monotonicity.
    const SegmentNode* prev = nullptr;
    for (const SegmentNode* c : n->children) {
      if (c == nullptr) {
        report->AddError("update_log", "null-child",
                         "null child pointer", n->sid);
        continue;
      }
      if (c->parent != n) {
        std::ostringstream os;
        os << "segment " << c->sid << " parent link does not point at "
           << n->sid;
        report->AddError("update_log", "parent-link", os.str(), c->sid);
      }
      if (!(n->gp <= c->gp && c->end() <= n->end())) {
        std::ostringstream os;
        os << "child " << c->sid << " [" << c->gp << ", " << c->end()
           << ") escapes parent " << n->sid << " [" << n->gp << ", "
           << n->end() << ")";
        report->AddError("update_log", "child-escapes-parent", os.str(),
                         c->sid);
      }
      if (prev != nullptr) {
        if (prev->end() > c->gp) {
          std::ostringstream os;
          os << "children " << prev->sid << " and " << c->sid
             << " of segment " << n->sid << " overlap globally";
          report->AddError("update_log", "sibling-overlap", os.str(), n->sid);
        }
        if (prev->lp > c->lp) {
          std::ostringstream os;
          os << "children " << prev->sid << " and " << c->sid
             << " of segment " << n->sid << " have decreasing frozen lp";
          report->AddError("update_log", "sibling-lp-order", os.str(),
                           n->sid);
        }
      }
      if (c->base_level < n->base_level) {
        std::ostringstream os;
        os << "child " << c->sid << " base_level " << c->base_level
           << " below parent " << n->sid << " base_level " << n->base_level;
        report->AddError("update_log", "base-level-order", os.str(), c->sid);
      }
      prev = c;
      work.push_back(c);
    }
  }
  report->BumpChecksRun();
  return reachable;
}

}  // namespace internal

/// Deep scrub of the in-memory database state. Never fails as a Result —
/// inconsistencies are findings, not statuses — but keeps the Result
/// signature so callers compose with the rest of the no-exception API.
inline Result<CheckReport> CheckDatabase(const LazyDatabase& db) {
  CheckReport report;
  const UpdateLog& log = db.update_log();
  const ElementIndex& index = db.element_index();
  const TagDict& dict = db.tag_dict();

  // ---- (b1) ER-tree geometry + reachability ------------------------------
  const std::set<SegmentId> reachable = internal::CheckErTree(log, &report);
  std::size_t registered = 0;
  log.ForEachSegment([&](const SegmentNode& n) {
    ++registered;
    if (reachable.count(n.sid) == 0) {
      std::ostringstream os;
      os << "segment " << n.sid << " is registered but unreachable from the"
         << " dummy root";
      report.AddError("update_log", "unreachable-segment", os.str(), n.sid);
    }
    return true;
  });
  if (registered < reachable.size()) {
    report.AddError("update_log", "phantom-segment",
                    "ER-tree reaches a segment missing from the registry");
  }
  report.BumpChecksRun();

  // ---- (b2) SB-tree agreement (only meaningful once frozen) --------------
  if (log.frozen()) {
    log.VisitSbTreeNodes([&](const BTreeNodeInfo& n) {
      GradeBTreeNode(n, "sb-tree", &report);
      return true;
    });
    for (SegmentId sid : reachable) {
      if (sid == kRootSegmentId) continue;  // root lives outside the tree
      auto found = log.FindSegment(sid);
      if (!found.ok() || found.ValueOrDie() == nullptr ||
          found.ValueOrDie()->sid != sid) {
        std::ostringstream os;
        os << "SB-tree lookup of live segment " << sid << " failed";
        report.AddError("update_log", "sb-tree-miss", os.str(), sid);
      }
    }
    report.BumpChecksRun();
  }

  // ---- Update-log self check (length accounting backstop) ----------------
  {
    Status own = log.CheckInvariants();
    if (!own.ok()) {
      report.AddError("update_log", "self-check", own.ToString());
    }
    report.BumpChecksRun();
  }

  // ---- (a) element-index B+-tree shape + self check ----------------------
  index.VisitTreeNodes([&](const BTreeNodeInfo& n) {
    GradeBTreeNode(n, "element-index", &report);
    return true;
  });
  {
    Status own = index.CheckInvariants();
    if (!own.ok()) {
      report.AddError("element_index", "self-check", own.ToString());
    }
    report.BumpChecksRun();
  }

  // ---- (b3) element records vs segments ----------------------------------
  // Group per segment for nesting and summary checks; tally per (tid,sid)
  // for the tag-list cross-check.
  struct Interval {
    uint64_t start, end;
    uint32_t level;
  };
  std::map<SegmentId, std::vector<Interval>> by_sid;
  std::map<std::pair<TagId, SegmentId>, uint64_t> index_counts;
  std::map<SegmentId, std::set<TagId>> live_tags;
  index.ForEachRecord([&](const ElementIndexRecord& r) {
    report.BumpObjectsScanned();
    if (r.tid >= dict.size()) {
      std::ostringstream os;
      os << "record (tid=" << r.tid << ", sid=" << r.sid << ", start="
         << r.start << ") references an uninterned tag";
      report.AddError("element_index", "dangling-tid", os.str(), r.sid);
    }
    if (r.end <= r.start) {
      std::ostringstream os;
      os << "record (tid=" << r.tid << ", sid=" << r.sid << ") has empty or"
         << " inverted interval [" << r.start << ", " << r.end << ")";
      report.AddError("element_index", "empty-interval", os.str(), r.sid);
    }
    const SegmentNode* node = log.NodeOf(r.sid);
    if (node == nullptr) {
      std::ostringstream os;
      os << "record (tid=" << r.tid << ", start=" << r.start
         << ") references dead segment " << r.sid;
      report.AddError("element_index", "dangling-sid", os.str(), r.sid);
      return true;
    }
    if (r.level <= node->base_level) {
      std::ostringstream os;
      os << "record (tid=" << r.tid << ", sid=" << r.sid << ", start="
         << r.start << ") level " << r.level
         << " not below its segment's splice depth " << node->base_level;
      report.AddError("element_index", "level-below-base", os.str(), r.sid);
    }
    by_sid[r.sid].push_back(Interval{r.start, r.end, r.level});
    ++index_counts[{r.tid, r.sid}];
    live_tags[r.sid].insert(r.tid);
    return true;
  });

  for (auto& [sid, intervals] : by_sid) {
    const SegmentNode* node = log.NodeOf(sid);
    if (node == nullptr) continue;  // already reported
    // Laminar nesting: sorted by (start asc, end desc), a stack walk must
    // never see a partial overlap.
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.start != b.start) return a.start < b.start;
                return a.end > b.end;
              });
    std::vector<const Interval*> stack;
    bool overlap_reported = false;
    for (const Interval& iv : intervals) {
      while (!stack.empty() && stack.back()->end <= iv.start) {
        stack.pop_back();
      }
      if (!stack.empty() && stack.back()->end < iv.end &&
          !overlap_reported) {
        std::ostringstream os;
        os << "records [" << stack.back()->start << ", " << stack.back()->end
           << ") and [" << iv.start << ", " << iv.end
           << ") partially overlap in segment " << sid;
        report.AddError("element_index", "interval-overlap", os.str(), sid);
        overlap_reported = true;  // one finding per segment is enough
      }
      stack.push_back(&iv);
    }
    // Every live record must appear verbatim in the segment's nesting
    // summary (the summary may keep stale extra entries for removed
    // elements; that is by design and not a finding).
    std::set<std::tuple<uint64_t, uint64_t, uint32_t>> summary_set;
    for (const NestingEntry& e : node->summary) {
      summary_set.insert({e.start, e.end, e.level});
    }
    for (const Interval& iv : intervals) {
      if (summary_set.count({iv.start, iv.end, iv.level}) == 0) {
        std::ostringstream os;
        os << "record [" << iv.start << ", " << iv.end << ") level "
           << iv.level << " of segment " << sid
           << " is missing from the nesting summary";
        report.AddError("element_index", "summary-miss", os.str(), sid);
      }
    }
  }
  report.BumpChecksRun();

  // ---- distinct_tags coverage -------------------------------------------
  for (const auto& [sid, tags] : live_tags) {
    const SegmentNode* node = log.NodeOf(sid);
    if (node == nullptr) continue;
    for (TagId tid : tags) {
      if (!std::binary_search(node->distinct_tags.begin(),
                              node->distinct_tags.end(), tid)) {
        std::ostringstream os;
        os << "segment " << sid << " has live records of tag " << tid
           << " not listed in distinct_tags";
        report.AddError("update_log", "distinct-tags-miss", os.str(), sid);
      }
    }
    // Stale extra tags after partial removals are by-design laziness.
    if (node->distinct_tags.size() > tags.size()) {
      std::ostringstream os;
      os << "segment " << sid << " distinct_tags holds "
         << (node->distinct_tags.size() - tags.size())
         << " stale tag(s) with no live records";
      report.AddInfo("update_log", "distinct-tags-stale", os.str(), sid);
    }
  }
  report.BumpChecksRun();

  // ---- (b4) tag-list ↔ element-index agreement ---------------------------
  std::map<std::pair<TagId, SegmentId>, uint64_t> list_counts;
  log.tag_list().ForEachEntry([&](TagId tid, const TagListEntry& e) {
    report.BumpObjectsScanned();
    if (e.path.empty()) {
      report.AddError("tag_list", "empty-path", "entry with empty path");
      return true;
    }
    const SegmentId sid = e.sid();
    list_counts[{tid, sid}] += e.count;
    const SegmentNode* node = log.NodeOf(sid);
    if (node == nullptr) {
      std::ostringstream os;
      os << "entry for tag " << tid << " references dead segment " << sid;
      report.AddError("tag_list", "dead-segment", os.str(), sid);
      return true;
    }
    if (e.path.front() != kRootSegmentId) {
      std::ostringstream os;
      os << "path of entry (tag " << tid << ", segment " << sid
         << ") does not start at the dummy root";
      report.AddError("tag_list", "path-root", os.str(), sid);
    }
    const SegmentNode* walk = node;
    for (size_t i = e.path.size(); i-- > 0;) {
      if (walk == nullptr || walk->sid != e.path[i]) {
        std::ostringstream os;
        os << "path of entry (tag " << tid << ", segment " << sid
           << ") does not match the live parent chain";
        report.AddError("tag_list", "path-chain", os.str(), sid);
        break;
      }
      walk = walk->parent;
    }
    if (e.count == 0) {
      std::ostringstream os;
      os << "entry (tag " << tid << ", segment " << sid
         << ") has zero occurrences but was not erased";
      report.AddError("tag_list", "zero-count", os.str(), sid);
    }
    return true;
  });
  for (const auto& [key, count] : list_counts) {
    auto it = index_counts.find(key);
    const uint64_t indexed = it == index_counts.end() ? 0 : it->second;
    if (indexed != count) {
      std::ostringstream os;
      os << "tag-list holds " << count << " occurrence(s) of tag "
         << key.first << " in segment " << key.second
         << " but the element index holds " << indexed;
      report.AddError("tag_list", "count-mismatch", os.str(), key.second);
    }
  }
  for (const auto& [key, count] : index_counts) {
    if (list_counts.find(key) == list_counts.end()) {
      std::ostringstream os;
      os << "element index holds " << count << " record(s) of tag "
         << key.first << " in segment " << key.second
         << " with no tag-list entry";
      report.AddError("tag_list", "entry-miss", os.str(), key.second);
    }
  }
  report.BumpChecksRun();

  // ---- (b6) path summary ↔ live structure (invariant I-SUMMARY) ----------
  // When a summary is installed for the current epoch, its canonical form
  // (every node's root path, element count, and per-segment breakdown)
  // must equal one rebuilt from scratch against the live update log and
  // element index — that equality is what makes summary-pruned joins
  // byte-identical to unpruned ones (docs/PATH_SUMMARY.md) — and every
  // edge it marks strong must be strong in the rebuild, which is what
  // makes summary-proven predicates sound.
  if (const PathSummary* summary = db.path_summary()) {
    auto rebuilt = LazyDatabase::BuildPathSummary(db.update_log(), index);
    if (!rebuilt.ok()) {
      report.AddError("path_summary", "rebuild-failure",
                      "summary rebuild failed: " +
                          rebuilt.status().ToString());
    } else {
      const std::vector<std::string> live = summary->CanonicalLines();
      const std::vector<std::string> want =
          rebuilt.ValueOrDie()->CanonicalLines();
      report.BumpObjectsScanned();
      if (live != want) {
        std::set<std::string> live_set(live.begin(), live.end());
        std::set<std::string> want_set(want.begin(), want.end());
        for (const std::string& line : live) {
          if (want_set.find(line) == want_set.end()) {
            report.AddError("path_summary", "phantom-path",
                            "summary holds '" + line +
                                "' absent from a fresh rebuild");
          }
        }
        for (const std::string& line : want) {
          if (live_set.find(line) == live_set.end()) {
            report.AddError("path_summary", "missing-path",
                            "fresh rebuild holds '" + line +
                                "' absent from the summary");
          }
        }
        if (live_set == want_set) {
          report.AddError("path_summary", "order-mismatch",
                          "summary canonical lines are mis-ordered");
        }
      }
      // Maintained states are conservative, so they may say less than
      // the rebuild's exact ones, never more.
      for (uint32_t n : summary->FalseStrongEdges(*rebuilt.ValueOrDie())) {
        report.AddError("path_summary", "false-strong-edge",
                        "summary marks the edge into '" +
                            summary->PathString(n) +
                            "' strong, a fresh rebuild does not");
      }
    }
    report.BumpChecksRun();
  }

  // ---- (b7) MVCC version store (invariant I-MVCC) ------------------------
  // Retired pre-image chains must ascend strictly by retire epoch, hold no
  // version that no open view can reach, and every cached snapshot must be
  // pinned by a live view (docs/MVCC.md).
  {
    Status mvcc = db.mvcc().CheckInvariants();
    if (!mvcc.ok()) {
      report.AddError("mvcc", "self-check", mvcc.ToString());
    }
    report.BumpChecksRun();
  }

  return report;
}

}  // namespace check
}  // namespace lazyxml

#endif  // LAZYXML_CHECK_DATABASE_CHECK_H_
