#include "query/query_eval.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <optional>
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
// predicate of the step is satisfiable beneath it, and some step i+1
// match chains from it. Each condition is NECESSARY for an element chain
// that reaches the last step (every element lies on its root-to-tag
// path; axes translate to path-tree edges; existence needs count > 0),
// so an empty match set proves the answer empty and the matched tags are
// a complete wildcard expansion (docs/PATH_SUMMARY.md).
//
// Without predicates the forward conditions are also SUFFICIENT: an
// element's ancestors are exactly the elements on its path's prefixes,
// so an element matches steps[0..i] iff its node is a forward step-i
// match. When the step-i matches of a tag hold every live element of the
// tag, the step selects every element of that tag, and no join is needed
// to find them. A predicate the summary proves true (below) counts as
// absent.
//
// The tables hold one byte per (pattern step, summary node), each cell
// set at most once: a step's candidates are its tag's postings, and
// marking "below" on their ancestors stops at the first ancestor already
// marked. Matching is O(nodes x pattern steps).

/// Cell bits of the match table.
enum : uint8_t {
  /// The node can hold the step's element, with the rest of its path and
  /// its predicates satisfiable below.
  kSat = 1,
  /// A kSat node of the step lies below the node along the step's axis.
  kBelow = 2,
  /// Proofs (every element on the node, along strong edges): known/true.
  kProvenSatKnown = 4,
  kProvenSat = 8,
  kProvenBelowKnown = 16,
  kProvenBelow = 32,
};

/// Pattern tables above this many cells are not built: the query runs
/// with its joins alone, as without a summary.
constexpr size_t kMaxMatchCells = size_t{1} << 22;

/// Proof recursion deeper than this gives up (not proven).
constexpr int kMaxProofDepth = 512;

/// One step of the pattern (outermost path or predicate, nested ones
/// included).
struct PatternStep {
  const XPathStep* step;
  /// Name test; kInvalidTagId when the name is not interned (matches
  /// nothing). Unused for wildcards.
  TagId tid;
  /// The next step of its path, or -1.
  int32_t next = -1;
  /// The first step of each predicate.
  std::vector<int32_t> preds;
};

class SummaryMatch {
 public:
  /// Re-proves the `unknown` edge into a node (one join), records and
  /// returns its state.
  using Reprove = std::function<EdgeState(uint32_t node)>;

  SummaryMatch(const PathSummary& ps, const TagDict& dict)
      : ps_(ps), dict_(dict), n_(ps.num_nodes()) {}

  /// Builds the tables and the per-step node sets. False when the tables
  /// would be too large (no claim is made then).
  bool Match(const std::vector<XPathStep>& steps) {
    const int32_t first = AddPath(steps);
    for (int32_t s = first; s >= 0; s = pattern_[s].next) outer_.push_back(s);
    if (pattern_.size() * n_ > kMaxMatchCells) return false;
    cells_.assign(pattern_.size() * n_, 0);
    Fill(first);
    MatchOuter();
    return true;
  }

  /// Summary nodes matching each step of the outermost path. An empty set
  /// at any step proves the answer empty. The first step matches
  /// anywhere (implicit descendant-of-root).
  const std::vector<std::vector<uint32_t>>& matched() const {
    return matched_;
  }

  /// Per outermost step, its predicates the summary proves true for every
  /// element the step's set can hold before they are applied.
  std::vector<std::vector<bool>> ProvePredicates(const Reprove& reprove) {
    reprove_ = &reprove;
    std::vector<std::vector<bool>> proven(outer_.size());
    for (size_t i = 0; i < outer_.size(); ++i) {
      const PatternStep& p = pattern_[outer_[i]];
      proven[i].assign(p.preds.size(), false);
      for (size_t k = 0; k < p.preds.size(); ++k) {
        proven[i][k] = PathImplied(i, p.preds[k]) ||
                       ProvenOnAll(reach_[i], p.preds[k]);
      }
    }
    return proven;
  }

  /// Table cells and nodes visited (work measure).
  uint64_t visits() const { return visits_; }

 private:
  int32_t AddPath(const std::vector<XPathStep>& path) {
    int32_t first = -1;
    int32_t prev = -1;
    for (const XPathStep& step : path) {
      const int32_t id = static_cast<int32_t>(pattern_.size());
      TagId tid = kInvalidTagId;
      if (!step.wildcard) {
        auto r = dict_.Lookup(step.name);
        if (r.ok()) tid = r.ValueOrDie();
      }
      pattern_.push_back(PatternStep{&step, tid, -1, {}});
      if (prev >= 0) pattern_[prev].next = id;
      if (first < 0) first = id;
      prev = id;
      for (const auto& pred : step.predicates) {
        const int32_t p = AddPath(pred);
        pattern_[id].preds.push_back(p);
      }
    }
    return first;
  }

  uint8_t& Cell(int32_t s, uint32_t node) {
    return cells_[static_cast<size_t>(s) * n_ + node];
  }

  bool TagMatches(int32_t s, uint32_t node) const {
    const PatternStep& p = pattern_[s];
    return p.step->wildcard || ps_.tag(node) == p.tid;
  }

  /// Calls `fn` on every node that can pass step `s`'s name test: the
  /// tag's postings, or every node for a wildcard.
  template <typename Fn>
  void ForCandidates(int32_t s, Fn&& fn) {
    const PatternStep& p = pattern_[s];
    if (p.step->wildcard) {
      for (uint32_t n = 1; n < n_; ++n) fn(n);
    } else if (p.tid != kInvalidTagId) {
      for (uint32_t n : ps_.Postings(p.tid)) fn(n);
    }
  }

  /// kSat/kBelow for the path starting at `first`, its predicates first.
  void Fill(int32_t first) {
    std::vector<int32_t> path;
    for (int32_t s = first; s >= 0; s = pattern_[s].next) path.push_back(s);
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      const int32_t s = *it;
      const PatternStep& p = pattern_[s];
      for (int32_t q : p.preds) Fill(q);
      const bool desc = p.step->descendant_axis;
      ForCandidates(s, [&](uint32_t n) {
        ++visits_;
        if (ps_.count(n) == 0) return;
        bool sat = p.next < 0 || (Cell(p.next, n) & kBelow) != 0;
        for (size_t k = 0; sat && k < p.preds.size(); ++k) {
          sat = (Cell(p.preds[k], n) & kBelow) != 0;
        }
        if (!sat) return;
        Cell(s, n) |= kSat;
        // kBelow on the parent ('/') or on every proper ancestor ('//'),
        // up to one already marked: its own ancestors are marked too.
        for (uint32_t a = ps_.parent(n); a != PathSummary::kNoNode;
             a = ps_.parent(a)) {
          ++visits_;
          uint8_t& cell = Cell(s, a);
          if (desc && (cell & kBelow) != 0) break;
          cell |= kBelow;
          if (!desc) break;
        }
      });
    }
  }

  /// True when `node` or one of its ancestors is marked in `fwd`. `up`
  /// memoizes the answer per node (0 unknown, 1 no, 2 yes), so a pass
  /// over many nodes walks each ancestor once.
  bool MarkedAtOrAbove(uint32_t node, const std::vector<uint8_t>& fwd,
                       std::vector<uint8_t>* up) {
    std::vector<uint32_t>& path = walk_;
    path.clear();
    uint8_t result = 1;
    for (uint32_t a = node; a != PathSummary::kNoNode; a = ps_.parent(a)) {
      ++visits_;
      if ((*up)[a] != 0) {
        result = (*up)[a];
        break;
      }
      path.push_back(a);
      if (fwd[a] != 0) {
        result = 2;
        break;
      }
    }
    for (uint32_t a : path) (*up)[a] = result;
    return result == 2;
  }

  /// The forward sets (reach_: every live node of the step's tag the
  /// step's pre-predicate set can draw from; fwd: those whose predicates
  /// are satisfiable) and matched_ = fwd nodes with the rest of the
  /// pattern below them — the forward and backward passes in one.
  void MatchOuter() {
    const size_t k = outer_.size();
    matched_.assign(k, {});
    reach_.assign(k, {});
    std::vector<uint8_t> fwd(n_, 0);
    std::vector<uint8_t> prev(n_, 0);
    std::vector<uint8_t> up(n_, 0);
    for (size_t i = 0; i < k; ++i) {
      const int32_t s = outer_[i];
      const PatternStep& p = pattern_[s];
      const bool desc = p.step->descendant_axis;
      if (i > 0) {
        fwd.swap(prev);
        std::fill(fwd.begin(), fwd.end(), 0);
        std::fill(up.begin(), up.end(), 0);
      }
      ForCandidates(s, [&](uint32_t n) {
        ++visits_;
        if (ps_.count(n) == 0) return;
        // Chained: n's parent ('/') or a proper ancestor ('//') is a step
        // i-1 forward node.
        if (i > 0 && !(desc ? MarkedAtOrAbove(ps_.parent(n), prev, &up)
                            : prev[ps_.parent(n)] != 0)) {
          return;
        }
        reach_[i].push_back(n);
        for (int32_t q : p.preds) {
          if ((Cell(q, n) & kBelow) == 0) return;
        }
        fwd[n] = 1;
        if ((Cell(s, n) & kSat) != 0) matched_[i].push_back(n);
      });
      if (matched_[i].empty()) return;  // an empty proof
    }
  }

  /// Path-implied: predicate `q` of outermost step i holds for every
  /// step-i element with a step-(i+1) candidate below it, because the
  /// path from the step-i node down to each such candidate node realizes
  /// q on the candidate's own ancestors. Only predicate-free predicates
  /// of at most 63 steps are tried, within a visit budget.
  bool PathImplied(size_t i, int32_t q) {
    if (i + 1 >= outer_.size()) return false;
    std::vector<int32_t> path;
    for (int32_t s = q; s >= 0; s = pattern_[s].next) {
      if (!pattern_[s].preds.empty() || path.size() == 63) return false;
      path.push_back(s);
    }
    const uint64_t done = uint64_t{1} << path.size();
    const int32_t next = outer_[i + 1];
    const bool next_desc = pattern_[next].step->descendant_axis;
    size_t budget = 8 * n_ + 1024;
    struct Frame {
      uint32_t node;
      uint64_t at;     // q-prefix lengths matched, last step at this node
      uint64_t above;  // q-prefix lengths matched at or above this node
    };
    std::vector<Frame> work;
    for (uint32_t n : reach_[i]) {
      work.push_back(Frame{n, 1, 1});
      while (!work.empty()) {
        const Frame f = work.back();
        work.pop_back();
        for (uint32_t c : ps_.children(f.node)) {
          if (budget-- == 0) return false;
          ++visits_;
          uint64_t at = 0;
          for (size_t j = 0; j < path.size(); ++j) {
            const bool desc = pattern_[path[j]].step->descendant_axis;
            if (((desc ? f.above : f.at) >> j & 1) != 0 &&
                TagMatches(path[j], c)) {
              at |= uint64_t{2} << j;
            }
          }
          const uint64_t above = f.above | at;
          if (ps_.count(c) > 0 && TagMatches(next, c) && (above & done) == 0) {
            return false;
          }
          if (next_desc) work.push_back(Frame{c, at, above});
        }
      }
    }
    return true;
  }

  /// True when predicate `q` is proven on every node of `nodes`.
  bool ProvenOnAll(const std::vector<uint32_t>& nodes, int32_t q) {
    for (uint32_t n : nodes) {
      if (!ProvenBelow(q, n, 0)) return false;
    }
    return true;
  }

  /// True when the edge into `node` is strong, re-proving it if unknown.
  bool Strong(uint32_t node) {
    EdgeState s = ps_.edge_state(node);
    if (s == EdgeState::kUnknown) s = (*reprove_)(node);
    return s == EdgeState::kStrong;
  }

  /// Every element on `node` has a child (descendant, for a '//' step)
  /// reached along strong edges that satisfies step `s`: a kSat node
  /// proven by ProvenSat.
  bool ProvenBelow(int32_t s, uint32_t node, int depth) {
    uint8_t& cell = Cell(s, node);
    if ((cell & kProvenBelowKnown) != 0) return (cell & kProvenBelow) != 0;
    bool proven = false;
    if ((cell & kBelow) != 0 && depth < kMaxProofDepth) {
      const bool desc = pattern_[s].step->descendant_axis;
      for (uint32_t c : ps_.children(node)) {
        ++visits_;
        const uint8_t cc = Cell(s, c);
        const bool sat = (cc & kSat) != 0;
        const bool below = desc && (cc & kBelow) != 0;
        if ((!sat && !below) || !Strong(c)) continue;
        if ((sat && ProvenSat(s, c, depth + 1)) ||
            (below && ProvenBelow(s, c, depth + 1))) {
          proven = true;
          break;
        }
      }
    }
    Cell(s, node) |= kProvenBelowKnown | (proven ? kProvenBelow : 0);
    return proven;
  }

  /// Every element on kSat node `node` satisfies step `s`: its
  /// predicates and the rest of its path are proven below it.
  bool ProvenSat(int32_t s, uint32_t node, int depth) {
    const uint8_t cell = Cell(s, node);
    if ((cell & kProvenSatKnown) != 0) return (cell & kProvenSat) != 0;
    const PatternStep& p = pattern_[s];
    bool proven = p.next < 0 || ProvenBelow(p.next, node, depth + 1);
    for (size_t k = 0; proven && k < p.preds.size(); ++k) {
      proven = ProvenBelow(p.preds[k], node, depth + 1);
    }
    Cell(s, node) |= kProvenSatKnown | (proven ? kProvenSat : 0);
    return proven;
  }

  const PathSummary& ps_;
  const TagDict& dict_;
  const size_t n_;
  std::vector<PatternStep> pattern_;
  std::vector<int32_t> outer_;
  std::vector<uint8_t> cells_;
  std::vector<std::vector<uint32_t>> matched_;
  std::vector<std::vector<uint32_t>> reach_;
  const Reprove* reprove_ = nullptr;
  uint64_t visits_ = 0;
  /// MarkedAtOrAbove's scratch.
  std::vector<uint32_t> walk_;
};

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
    LAZYXML_RETURN_NOT_OK(ApplyPredicates(&sets, path[idx], nullptr));
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

  /// Applies `step`'s predicates to `sets`, skipping those `proven`
  /// (may be null) marks true, most selective first when a summary is
  /// available (pure existence tests commute, so the order only affects
  /// how fast the sets shrink).
  Status ApplyPredicates(TagSets* sets, const XPathStep& step,
                         const std::vector<bool>* proven) {
    std::vector<size_t> order;
    for (size_t i = 0; i < step.predicates.size(); ++i) {
      if (proven == nullptr || !(*proven)[i]) order.push_back(i);
    }
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

  /// Re-proves the unknown edge into summary node `node` with one
  /// parent-child join: strong iff its distinct parents are every
  /// element of the parent's tag. The state is recorded on every node
  /// pair of the two tags. A join error leaves the states alone (the
  /// query fails with it).
  EdgeState ReproveEdge(uint32_t node) {
    const TagId parent_tag = summary->tag(summary->parent(node));
    const TagId child_tag = summary->tag(node);
    auto pairs = Join(parent_tag, child_tag, /*parent_child=*/true);
    if (!pairs.ok()) {
      if (proof_status.ok()) proof_status = pairs.status();
      return EdgeState::kWeak;
    }
    std::vector<LazyElementRef> parents;
    parents.reserve(pairs.ValueOrDie()->size());
    for (const LazyJoinPair& p : *pairs.ValueOrDie()) {
      const LazyElementRef r{p.ancestor_sid, p.ancestor_start};
      if (parents.empty() || !(parents.back() == r)) parents.push_back(r);
    }
    SortRefs(&parents);
    const EdgeState state = parents.size() == summary->TagCount(parent_tag)
                                ? EdgeState::kStrong
                                : EdgeState::kWeak;
    for (uint32_t m : summary->Postings(parent_tag)) {
      const uint32_t c = summary->Find(m, child_tag);
      if (c != PathSummary::kNoNode) summary->SetEdgeState(c, state);
    }
    LAZYXML_METRIC_COUNTER(edge_proofs, "summary.edge_proofs_total");
    edge_proofs.Increment();
    return state;
  }

  /// First error of a ReproveEdge join.
  Status proof_status;

  /// `matched` and `proven` (per outermost step) come from SummaryMatch,
  /// or are both null.
  Status Run(const std::vector<XPathStep>& steps,
             const std::vector<std::vector<uint32_t>>* matched,
             const std::vector<std::vector<bool>>* proven, bool global,
             size_t max_rows) {
    const auto match = [matched](size_t i) {
      return matched != nullptr ? &(*matched)[i] : nullptr;
    };
    const auto proofs = [proven](size_t i) {
      return proven != nullptr ? &(*proven)[i] : nullptr;
    };
    // A step's predicates all proven: its set is as if it had none.
    const auto unfiltered = [&steps, proven](size_t i) {
      return steps[i].predicates.empty() ||
             (proven != nullptr &&
              std::find((*proven)[i].begin(), (*proven)[i].end(), false) ==
                  (*proven)[i].end());
    };
    TagSets cur = EveryElement(CandidateTags(steps[0], match(0)));
    LAZYXML_RETURN_NOT_OK(ApplyPredicates(&cur, steps[0], proofs(0)));
    bool exact = matched != nullptr;
    for (size_t i = 1; i < steps.size() && !cur.empty(); ++i) {
      exact = exact && unfiltered(i - 1);
      LAZYXML_ASSIGN_OR_RETURN(cur, Forward(cur, steps[i], match(i), exact));
      LAZYXML_RETURN_NOT_OK(ApplyPredicates(&cur, steps[i], proofs(i)));
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
  std::optional<SummaryMatch> match;
  if (ev.summary != nullptr) {
    match.emplace(*ev.summary, db->tag_dict());
    if (!match->Match(steps)) match.reset();
  }
  if (match.has_value()) {
    for (const auto& m : match->matched()) {
      if (!m.empty()) continue;
      // The summary proved the answer empty: no tag list is scanned.
      ev.result.summary_empty = true;
      ev.result.summary_visits = match->visits();
      LAZYXML_METRIC_COUNTER(pruned_joins, "query.joins_pruned_total");
      pruned_joins.Increment();
      return std::move(ev.result);
    }
  }
  // Tag lists are read directly, not only through joins.
  LAZYXML_RETURN_NOT_OK(db->Freeze());
  std::vector<std::vector<bool>> proven;
  if (match.has_value()) {
    const SummaryMatch::Reprove reprove = [&ev](uint32_t node) {
      return ev.ReproveEdge(node);
    };
    proven = match->ProvePredicates(reprove);
    LAZYXML_RETURN_NOT_OK(ev.proof_status);
    ev.result.summary_visits = match->visits();
    uint64_t skipped = 0;
    for (const auto& p : proven) skipped += std::count(p.begin(), p.end(), true);
    LAZYXML_METRIC_COUNTER(proven_preds, "query.predicates_proven_total");
    proven_preds.Add(skipped);
  }
  LAZYXML_RETURN_NOT_OK(ev.Run(
      steps, match.has_value() ? &match->matched() : nullptr,
      match.has_value() ? &proven : nullptr, global, max_rows));
  return std::move(ev.result);
}

}  // namespace lazyxml
