#include "query/query_eval.h"

#include <algorithm>
#include <deque>
#include <utility>

#include "core/global_converter.h"
#include "core/path_summary.h"
#include "obs/metrics.h"

namespace lazyxml {

void SortRefs(std::vector<LazyElementRef>* refs) {
  std::vector<LazyElementRef>& v = *refs;
  struct Run {
    SegmentId sid;
    size_t begin;
    size_t end;
  };
  std::vector<Run> runs;
  bool runs_ascending = true;
  const auto by_start = [](const LazyElementRef& a, const LazyElementRef& b) {
    return a.start < b.start;
  };
  for (size_t i = 0; i < v.size();) {
    size_t j = i + 1;
    while (j < v.size() && v[j].sid == v[i].sid) ++j;
    const auto first = v.begin() + static_cast<ptrdiff_t>(i);
    const auto last = v.begin() + static_cast<ptrdiff_t>(j);
    if (!std::is_sorted(first, last, by_start)) std::sort(first, last, by_start);
    if (!runs.empty() && runs.back().sid >= v[i].sid) runs_ascending = false;
    runs.push_back(Run{v[i].sid, i, j});
    i = j;
  }
  if (!runs_ascending) {
    std::sort(runs.begin(), runs.end(),
              [](const Run& a, const Run& b) { return a.sid < b.sid; });
    std::vector<LazyElementRef> gathered;
    gathered.reserve(v.size());
    for (const Run& r : runs) {
      gathered.insert(gathered.end(), v.begin() + static_cast<ptrdiff_t>(r.begin),
                      v.begin() + static_cast<ptrdiff_t>(r.end));
    }
    v.swap(gathered);
    if (!std::is_sorted(v.begin(), v.end())) std::sort(v.begin(), v.end());
  }
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

namespace {

// ---------------------------------------------------------------------------
// Summary pattern matching
//
// Matches the pattern against the path summary: a summary node "matches
// step i" when its tag passes the name test, it holds a live element,
// its path chains from a step i-1 match along the step's axis, every
// predicate of the step is satisfiable beneath it, and (backward pass)
// some step i+1 match chains from it. Each condition is NECESSARY for an
// element chain that reaches the last step (every element lies on its
// root-to-tag path; axes translate to path-tree edges; existence needs
// count > 0), so an empty match set proves the answer empty and the
// matched tags are a complete wildcard expansion (docs/PATH_SUMMARY.md).
//
// Without predicates the forward conditions are also SUFFICIENT: an
// element's ancestors are exactly the elements on its path's prefixes,
// so an element matches steps[0..i] iff its node is a forward step-i
// match. When the (backward-pruned, hence smaller) step-i matches of a
// tag hold every live element of the tag, the step selects every element
// of that tag, and no join is needed to find them.

bool StepTagMatches(const PathSummary& ps, uint32_t node,
                    const XPathStep& step, const TagDict& dict) {
  if (step.wildcard) return true;
  const std::string_view name = dict.Name(ps.tag(node));
  return !name.empty() && name == step.name;
}

bool PredsSatisfiable(const PathSummary& ps, const TagDict& dict,
                      uint32_t node, const XPathStep& step);

/// True when some chain matching steps[idx..] hangs below `node` (first
/// hop along steps[idx]'s axis).
bool ChainBelow(const PathSummary& ps, const TagDict& dict, uint32_t node,
                const std::vector<XPathStep>& steps, size_t idx) {
  if (idx == steps.size()) return true;
  const XPathStep& step = steps[idx];
  std::vector<uint32_t> work(ps.children(node).begin(),
                             ps.children(node).end());
  while (!work.empty()) {
    const uint32_t n = work.back();
    work.pop_back();
    if (ps.count(n) > 0 && StepTagMatches(ps, n, step, dict) &&
        PredsSatisfiable(ps, dict, n, step) &&
        ChainBelow(ps, dict, n, steps, idx + 1)) {
      return true;
    }
    if (step.descendant_axis) {
      for (uint32_t c : ps.children(n)) work.push_back(c);
    }
  }
  return false;
}

bool PredsSatisfiable(const PathSummary& ps, const TagDict& dict,
                      uint32_t node, const XPathStep& step) {
  for (const auto& pred : step.predicates) {
    if (!ChainBelow(ps, dict, node, pred, 0)) return false;
  }
  return true;
}

/// Summary nodes matching each step of the outermost path. An empty set
/// at any step proves the answer empty. The first step matches anywhere
/// (implicit descendant-of-root).
std::vector<std::vector<uint32_t>> MatchSummary(
    const PathSummary& ps, const TagDict& dict,
    const std::vector<XPathStep>& steps) {
  std::vector<std::vector<uint32_t>> matched(steps.size());
  for (uint32_t n = 1; n < ps.num_nodes(); ++n) {
    if (ps.count(n) > 0 && StepTagMatches(ps, n, steps[0], dict) &&
        PredsSatisfiable(ps, dict, n, steps[0])) {
      matched[0].push_back(n);
    }
  }
  std::vector<uint8_t> prev(ps.num_nodes());
  for (size_t i = 1; i < steps.size() && !matched[i - 1].empty(); ++i) {
    const XPathStep& step = steps[i];
    std::fill(prev.begin(), prev.end(), 0);
    for (uint32_t n : matched[i - 1]) prev[n] = 1;
    for (uint32_t n = 1; n < ps.num_nodes(); ++n) {
      if (ps.count(n) == 0 || !StepTagMatches(ps, n, step, dict)) continue;
      bool chained = false;
      for (uint32_t a = ps.parent(n);
           a != PathSummary::kNoNode && a != PathSummary::kRootNode;
           a = ps.parent(a)) {
        if (prev[a]) {
          chained = true;
          break;
        }
        if (!step.descendant_axis) break;
      }
      if (chained && PredsSatisfiable(ps, dict, n, step)) {
        matched[i].push_back(n);
      }
    }
  }
  if (matched.back().empty()) return matched;  // an empty proof
  // Backward pass: keep a step i-1 node only if a step i match chains
  // from it (its parent for '/', any proper ancestor for '//').
  std::vector<uint8_t> chains(ps.num_nodes());
  for (size_t i = steps.size(); i-- > 1;) {
    std::fill(chains.begin(), chains.end(), 0);
    for (uint32_t n : matched[i]) {
      for (uint32_t a = ps.parent(n);
           a != PathSummary::kNoNode && a != PathSummary::kRootNode;
           a = ps.parent(a)) {
        chains[a] = 1;
        if (!steps[i].descendant_axis) break;
      }
    }
    std::erase_if(matched[i - 1], [&chains](uint32_t n) { return !chains[n]; });
  }
  return matched;
}

// ---------------------------------------------------------------------------
// Element sets

/// Elements of one tag (query/query_eval.h).
struct ElementSet {
  TagId tid = kInvalidTagId;
  /// Every element of `tid`; `refs` is unused.
  bool all = false;
  /// Sorted by (sid, start), distinct.
  std::vector<LazyElementRef> refs;

  bool empty() const { return !all && refs.empty(); }
};

using TagSets = std::vector<ElementSet>;

void DropEmpty(TagSets* sets) {
  sets->erase(std::remove_if(sets->begin(), sets->end(),
                             [](const ElementSet& s) { return s.empty(); }),
              sets->end());
}

/// Membership probe into one set. Remembers the run of the last probed
/// segment and a finger at the last hit inside it: a probe gallops from
/// the finger toward its target, so a run of ascending probes into one
/// segment costs O(log distance) each instead of a bisection of the run.
class Probe {
 public:
  static constexpr size_t kMissing = ~size_t{0};

  explicit Probe(const ElementSet& set) : set_(set) {}

  bool Contains(SegmentId sid, uint64_t start) {
    return set_.all || Find(sid, start) != kMissing;
  }

  /// Index of (sid, start) in the set's refs, or kMissing. Not for
  /// "every element" sets.
  size_t Find(SegmentId sid, uint64_t start) {
    const std::vector<LazyElementRef>& refs = set_.refs;
    if (!have_run_ || sid != sid_) {
      const auto lo = std::partition_point(
          refs.begin(), refs.end(),
          [sid](const LazyElementRef& r) { return r.sid < sid; });
      const auto hi = std::partition_point(
          lo, refs.end(),
          [sid](const LazyElementRef& r) { return r.sid == sid; });
      have_run_ = true;
      sid_ = sid;
      begin_ = static_cast<size_t>(lo - refs.begin());
      end_ = static_cast<size_t>(hi - refs.begin());
      finger_ = begin_;
    }
    finger_ = Gallop(start);
    if (finger_ == end_ || refs[finger_].start != start) return kMissing;
    return finger_;
  }

 private:
  /// First index in [begin_, end_) whose start is >= `start` (end_ if
  /// none), found by exponential steps from finger_ and a bisection of
  /// the last step.
  size_t Gallop(uint64_t start) const {
    const std::vector<LazyElementRef>& refs = set_.refs;
    const size_t f = finger_;
    size_t lo = 0;
    size_t hi = 0;  // the answer lies in [lo, hi]
    size_t bound = 1;
    if (f < end_ && refs[f].start < start) {
      while (f + bound < end_ && refs[f + bound].start < start) bound *= 2;
      lo = f + bound / 2 + 1;
      hi = std::min(f + bound, end_);
    } else {
      while (f >= begin_ + bound && refs[f - bound].start >= start) {
        bound *= 2;
      }
      lo = f >= begin_ + bound ? f - bound + 1 : begin_;
      hi = f - bound / 2;
    }
    const auto it = std::lower_bound(
        refs.begin() + static_cast<ptrdiff_t>(lo),
        refs.begin() + static_cast<ptrdiff_t>(hi), start,
        [](const LazyElementRef& r, uint64_t s) { return r.start < s; });
    return static_cast<size_t>(it - refs.begin());
  }

  const ElementSet& set_;
  bool have_run_ = false;
  SegmentId sid_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
  size_t finger_ = 0;
};

// ---------------------------------------------------------------------------
// Evaluation

struct Evaluator {
  QueryFacade* db = nullptr;
  LazyJoinOptions options;  // parent_child overridden per edge
  const PathSummary* summary = nullptr;
  XPathResult result;

  /// The query's joins, each edge run once (deque: stable addresses).
  struct Edge {
    TagId ancestor;
    TagId descendant;
    bool parent_child;
    std::vector<LazyJoinPair> pairs;
  };
  std::deque<Edge> edges;

  Result<const std::vector<LazyJoinPair>*> Join(TagId ancestor,
                                                TagId descendant,
                                                bool parent_child) {
    for (const Edge& e : edges) {
      if (e.ancestor == ancestor && e.descendant == descendant &&
          e.parent_child == parent_child) {
        return &e.pairs;
      }
    }
    const TagDict& dict = db->tag_dict();
    LazyJoinOptions jopts = options;
    jopts.parent_child = parent_child;
    LAZYXML_ASSIGN_OR_RETURN(
        LazyJoinResult join,
        db->JoinByName(dict.Name(ancestor), dict.Name(descendant), jopts));
    ++result.joins_executed;
    result.intermediate_pairs += join.pairs.size();
    result.segments_pruned += join.stats.segments_pruned;
    result.elements_skipped += join.stats.elements_skipped;
    edges.push_back(
        Edge{ancestor, descendant, parent_child, std::move(join.pairs)});
    return &edges.back().pairs;
  }

  /// Tags that can occur at a pattern position: the summary-matched tags
  /// when a match list is given, else the name's tid (every interned tag
  /// for a wildcard).
  std::vector<TagId> CandidateTags(const XPathStep& step,
                                   const std::vector<uint32_t>* match) const {
    std::vector<TagId> tags;
    const TagDict& dict = db->tag_dict();
    if (match != nullptr) {
      for (uint32_t n : *match) tags.push_back(summary->tag(n));
      std::sort(tags.begin(), tags.end());
      tags.erase(std::unique(tags.begin(), tags.end()), tags.end());
    } else if (!step.wildcard) {
      auto tid = dict.Lookup(step.name);
      if (tid.ok()) tags.push_back(tid.ValueOrDie());
    } else {
      for (TagId t = 0; t < dict.size(); ++t) tags.push_back(t);
    }
    return tags;
  }

  static TagSets EveryElement(const std::vector<TagId>& tags) {
    TagSets sets;
    for (TagId t : tags) sets.push_back(ElementSet{t, true, {}});
    return sets;
  }

  /// True when the summary nodes of `match` with tag `tid` hold every
  /// live element of `tid`.
  bool CoversTag(const std::vector<uint32_t>& match, TagId tid) const {
    uint64_t covered = 0;
    for (uint32_t n : match) {
      if (summary->tag(n) == tid) covered += summary->count(n);
    }
    return covered == summary->TagCount(tid);
  }

  /// Forward step: the candidate-tag elements with a parent (child axis)
  /// or an ancestor (descendant axis) in `ctx`. `exact` says the steps
  /// before this one carry no predicate, so the summary match is the
  /// step's exact answer (see "Summary pattern matching"): a candidate
  /// tag whose every element it covers needs no join.
  Result<TagSets> Forward(const TagSets& ctx, const XPathStep& step,
                          const std::vector<uint32_t>* match, bool exact) {
    TagSets out;
    std::vector<const std::vector<LazyJoinPair>*> joins(ctx.size());
    for (TagId d : CandidateTags(step, match)) {
      if (exact && CoversTag(*match, d)) {
        out.push_back(ElementSet{d, true, {}});
        continue;
      }
      ElementSet next{d, false, {}};
      size_t total = 0;
      for (size_t k = 0; k < ctx.size(); ++k) {
        LAZYXML_ASSIGN_OR_RETURN(joins[k],
                                 Join(ctx[k].tid, d, !step.descendant_axis));
        total += joins[k]->size();
      }
      next.refs.reserve(total);
      for (size_t k = 0; k < ctx.size(); ++k) {
        Probe probe(ctx[k]);
        for (const LazyJoinPair& p : *joins[k]) {
          if (!probe.Contains(p.ancestor_sid, p.ancestor_start)) continue;
          const LazyElementRef r{p.descendant_sid, p.descendant_start};
          if (next.refs.empty() || !(next.refs.back() == r)) {
            next.refs.push_back(r);
          }
        }
      }
      SortRefs(&next.refs);
      if (!next.empty()) out.push_back(std::move(next));
    }
    return out;
  }

  /// Predicate semi-join: keeps the elements of `set` with a parent-child
  /// (or ancestor-descendant) partner in `partners`.
  Status SemiJoin(ElementSet* set, bool parent_child,
                  const TagSets& partners) {
    std::vector<uint8_t> keep(set->all ? 0 : set->refs.size(), 0);
    std::vector<LazyElementRef> found;  // when `set` is every element
    Probe self(*set);
    for (const ElementSet& d : partners) {
      LAZYXML_ASSIGN_OR_RETURN(const std::vector<LazyJoinPair>* pairs,
                               Join(set->tid, d.tid, parent_child));
      Probe partner(d);
      for (const LazyJoinPair& p : *pairs) {
        if (!partner.Contains(p.descendant_sid, p.descendant_start)) continue;
        if (set->all) {
          const LazyElementRef r{p.ancestor_sid, p.ancestor_start};
          if (found.empty() || !(found.back() == r)) found.push_back(r);
        } else {
          const size_t i = self.Find(p.ancestor_sid, p.ancestor_start);
          if (i != Probe::kMissing) keep[i] = 1;
        }
      }
    }
    if (set->all) {
      SortRefs(&found);
      set->all = false;
      set->refs = std::move(found);
    } else {
      size_t w = 0;
      for (size_t i = 0; i < set->refs.size(); ++i) {
        if (keep[i]) set->refs[w++] = set->refs[i];
      }
      set->refs.resize(w);
    }
    return Status::OK();
  }

  /// Elements of `path[idx]`'s tags rooting a chain that matches
  /// path[idx..], predicates included (bottom-up).
  Result<TagSets> Exists(const std::vector<XPathStep>& path, size_t idx) {
    TagSets sets = EveryElement(CandidateTags(path[idx], nullptr));
    LAZYXML_RETURN_NOT_OK(ApplyPredicates(&sets, path[idx]));
    if (idx + 1 < path.size() && !sets.empty()) {
      LAZYXML_ASSIGN_OR_RETURN(TagSets below, Exists(path, idx + 1));
      for (ElementSet& s : sets) {
        LAZYXML_RETURN_NOT_OK(
            SemiJoin(&s, !path[idx + 1].descendant_axis, below));
      }
      DropEmpty(&sets);
    }
    return sets;
  }

  /// Applies `step`'s predicates to `sets`, most selective first when a
  /// summary is available (pure existence tests commute, so the order
  /// only affects how fast the sets shrink).
  Status ApplyPredicates(TagSets* sets, const XPathStep& step) {
    std::vector<size_t> order(step.predicates.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (summary != nullptr && order.size() > 1) {
      std::vector<uint64_t> estimate(order.size());
      for (size_t i = 0; i < order.size(); ++i) {
        const XPathStep& first = step.predicates[i][0];
        if (first.wildcard) {
          estimate[i] = summary->total_count();
        } else {
          auto tid = db->tag_dict().Lookup(first.name);
          estimate[i] = tid.ok() ? summary->TagCount(tid.ValueOrDie()) : 0;
        }
      }
      std::stable_sort(order.begin(), order.end(),
                       [&estimate](size_t a, size_t b) {
                         return estimate[a] < estimate[b];
                       });
    }
    for (size_t i : order) {
      if (sets->empty()) break;
      const std::vector<XPathStep>& pred = step.predicates[i];
      LAZYXML_ASSIGN_OR_RETURN(TagSets partners, Exists(pred, 0));
      for (ElementSet& s : *sets) {
        LAZYXML_RETURN_NOT_OK(
            SemiJoin(&s, !pred[0].descendant_axis, partners));
      }
      DropEmpty(sets);
    }
    return Status::OK();
  }

  /// Turns an "every element" set into its first `max_rows` elements in
  /// (sid, start) order and returns the size of the whole set, the sum of
  /// the tag-list counts. The tag list is walked by ascending sid and each
  /// run is in start order (core/element_index.h), so the rows come out
  /// sorted and distinct with no sort, and a short listing reads only the
  /// lowest-sid runs.
  uint64_t Materialize(ElementSet* set, size_t max_rows) {
    const std::span<const TagListEntry> entries =
        db->update_log().tag_list().EntriesFor(set->tid);
    std::vector<SegmentId> sids;
    sids.reserve(entries.size());
    uint64_t total = 0;
    for (const TagListEntry& e : entries) {
      sids.push_back(e.sid());
      total += e.count;
    }
    std::sort(sids.begin(), sids.end());
    set->refs.reserve(std::min<uint64_t>(total, max_rows));
    for (SegmentId sid : sids) {
      if (set->refs.size() == max_rows) break;
      ElementScan scan = db->GetScan(set->tid, sid);
      const size_t take = std::min(scan->size(), max_rows - set->refs.size());
      for (size_t k = 0; k < take; ++k) {
        set->refs.push_back(LazyElementRef{sid, (*scan)[k].start});
      }
    }
    set->all = false;
    return total;
  }

  /// Appends the global intervals of `set`'s elements to `out`.
  Status Globalize(const ElementSet& set, GlobalConverter* conv,
                   std::vector<GlobalElement>* out) {
    const UpdateLog& log = db->update_log();
    const std::vector<LazyElementRef>& refs = set.refs;
    for (size_t i = 0; i < refs.size();) {
      const SegmentId sid = refs[i].sid;
      const SegmentNode* node = log.NodeOf(sid);
      if (node == nullptr) {
        return Status::Internal("query result references a dead segment");
      }
      ElementScan scan = db->GetScan(set.tid, sid);
      size_t j = 0;
      for (; i < refs.size() && refs[i].sid == sid; ++i) {
        while (j < scan->size() && (*scan)[j].start < refs[i].start) ++j;
        if (j == scan->size() || (*scan)[j].start != refs[i].start) {
          return Status::Internal("query produced an unknown element");
        }
        out->push_back(conv->ToGlobal(*node, (*scan)[j]));
      }
    }
    return Status::OK();
  }

  Status Run(const std::vector<XPathStep>& steps,
             const std::vector<std::vector<uint32_t>>* matched, bool global,
             size_t max_rows) {
    const auto match = [matched](size_t i) {
      return matched != nullptr ? &(*matched)[i] : nullptr;
    };
    TagSets cur = EveryElement(CandidateTags(steps[0], match(0)));
    LAZYXML_RETURN_NOT_OK(ApplyPredicates(&cur, steps[0]));
    bool exact = matched != nullptr;
    for (size_t i = 1; i < steps.size() && !cur.empty(); ++i) {
      exact = exact && steps[i - 1].predicates.empty();
      LAZYXML_ASSIGN_OR_RETURN(cur, Forward(cur, steps[i], match(i), exact));
      LAZYXML_RETURN_NOT_OK(ApplyPredicates(&cur, steps[i]));
    }
    if (!global && cur.size() == 1) {
      // One tag: its set is already in reply order, so only the listed
      // rows are built.
      ElementSet& set = cur[0];
      result.count = set.all ? Materialize(&set, max_rows) : set.refs.size();
      if (set.refs.size() > max_rows) set.refs.resize(max_rows);
      result.refs = std::move(set.refs);
      return Status::OK();
    }
    // Several tags interleave (wildcard answers), and global order needs
    // every element's offsets: build every row, then list the first. Sets
    // of distinct tags hold distinct elements.
    for (ElementSet& set : cur) {
      if (set.all) Materialize(&set, kAllRows);
      result.count += set.refs.size();
    }
    result.refs.reserve(result.count);
    if (global) result.elements.reserve(result.count);
    GlobalConverter conv;
    for (const ElementSet& set : cur) {
      if (global) {
        LAZYXML_RETURN_NOT_OK(Globalize(set, &conv, &result.elements));
      }
      result.refs.insert(result.refs.end(), set.refs.begin(), set.refs.end());
    }
    // Only the cross-tag interleaving (wildcard answers) needs a sort.
    if (cur.size() > 1) std::sort(result.refs.begin(), result.refs.end());
    std::sort(result.elements.begin(), result.elements.end());
    if (result.refs.size() > max_rows) result.refs.resize(max_rows);
    if (result.elements.size() > max_rows) result.elements.resize(max_rows);
    return Status::OK();
  }
};

}  // namespace

Result<XPathResult> EvaluateSteps(QueryFacade* db,
                                  const std::vector<XPathStep>& steps,
                                  const LazyJoinOptions& options, bool global,
                                  size_t max_rows) {
  if (db == nullptr) return Status::InvalidArgument("query: null database");
  if (steps.empty()) return Status::InvalidArgument("query: empty expression");
  Evaluator ev;
  ev.db = db;
  ev.options = options;
  ev.summary = db->path_summary();
  std::vector<std::vector<uint32_t>> matched;
  if (ev.summary != nullptr) {
    matched = MatchSummary(*ev.summary, db->tag_dict(), steps);
    for (const auto& m : matched) {
      if (!m.empty()) continue;
      // The summary proved the answer empty: no tag list is scanned.
      ev.result.summary_empty = true;
      LAZYXML_METRIC_COUNTER(pruned_joins, "query.joins_pruned_total");
      pruned_joins.Increment();
      return std::move(ev.result);
    }
  }
  // Tag lists are read directly, not only through joins.
  LAZYXML_RETURN_NOT_OK(db->Freeze());
  LAZYXML_RETURN_NOT_OK(
      ev.Run(steps, ev.summary != nullptr ? &matched : nullptr, global,
             max_rows));
  return std::move(ev.result);
}

}  // namespace lazyxml
