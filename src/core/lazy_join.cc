#include "core/lazy_join.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/path_summary.h"
#include "join/global_element.h"
#include "join/stack_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lazyxml {
namespace {

// Supporting casts of the kernel, all per query:
//  * SegmentResolver — batched FindSegment: one SB-tree descent per
//    distinct sid per query instead of one per loop round;
//  * SpliceMemo — memoizes splice-position lookups per tag-list path
//    (the FindSplicePos linear rescan becomes one hash build + O(1)
//    probes);
//  * ScanFetcher — element-scan reads with two fetch slots that cover the
//    in-segment -> push reuse and the self-join double fetch.

/// A tag-list with every entry's SegmentNode* resolved up front.
struct ResolvedEntries {
  std::span<const TagListEntry> entries;
  /// Parallel to `entries`.
  std::vector<const SegmentNode*> nodes;
};

/// Batched sid -> SegmentNode* resolution (one SB-tree descent per
/// distinct sid, shared by every loop round of the query).
class SegmentResolver {
 public:
  /// Resolves every entry sid and every sid on every entry path.
  Status ResolveList(const UpdateLog& log,
                     std::span<const TagListEntry> entries,
                     ResolvedEntries* out) {
    out->entries = entries;
    out->nodes.clear();
    out->nodes.reserve(entries.size());
    for (const TagListEntry& e : entries) {
      // path[0] is the dummy root and is never a splice child nor a
      // tag-list sid, so it needs no node.
      for (size_t i = 1; i < e.path.size(); ++i) {
        const SegmentId sid = e.path[i];
        if (map_.find(sid) != map_.end()) continue;
        LAZYXML_ASSIGN_OR_RETURN(SegmentNode * node, log.FindSegment(sid));
        map_.emplace(sid, node);
      }
      out->nodes.push_back(Lookup(e.sid()));
    }
    return Status::OK();
  }

  /// Previously resolved node, or nullptr.
  const SegmentNode* Lookup(SegmentId sid) const {
    auto it = map_.find(sid);
    return it == map_.end() ? nullptr : it->second;
  }

 private:
  std::unordered_map<SegmentId, const SegmentNode*> map_;
};

/// Memoized splice-position lookup: for the path last queried, holds a
/// hash from ancestor sid to the splice position of that ancestor's
/// child on the path (paper Prop. 3's P value). One linear build per
/// path, O(1) per probe — replaces a linear rescan per probe.
class SpliceMemo {
 public:
  explicit SpliceMemo(const SegmentResolver* resolver)
      : resolver_(resolver) {}

  /// Splice position of `anc`'s child on `path`; false if `anc` is not
  /// an inner node of the path.
  bool Find(const std::vector<SegmentId>& path, SegmentId anc,
            uint64_t* p_out) {
    if (path_ != &path) {
      // New path: rebuild the inner-node -> child-splice map. Tag-list
      // paths are stable for the lifetime of a frozen query, so pointer
      // identity is a sound memo key.
      path_ = &path;
      pos_.clear();
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        const SegmentNode* child = resolver_->Lookup(path[i + 1]);
        if (child == nullptr) break;  // unresolved tail: probes there fail
        pos_.emplace(path[i], child->lp);
      }
    }
    auto it = pos_.find(anc);
    if (it == pos_.end()) return false;
    *p_out = it->second;
    return true;
  }

 private:
  const SegmentResolver* resolver_;
  const std::vector<SegmentId>* path_ = nullptr;  // memo key (identity)
  std::unordered_map<SegmentId, uint64_t> pos_;
};

/// Element-scan reads for one join: a two-slot per-query memo (one slot
/// per tag role), then the element index. Only index reads count into
/// `stats->elements_fetched`; a slot hit counts into `stats->scans_reused`.
class ScanFetcher {
 public:
  /// `versions` (may be null) overrides index reads for pinned-epoch view
  /// queries (docs/MVCC.md): a list retired after the view's epoch is
  /// served from the version store instead of the live index.
  ScanFetcher(const ElementIndex* index, const ScanVersionSource* versions)
      : index_(index), versions_(versions) {}

  ElementScan Fetch(TagId tid, SegmentId sid, LazyJoinStats* stats) {
    // One slot per tag role: slot 0 serves the first tid seen (both roles
    // of a self-join collapse onto it), slot 1 the other.
    Slot& slot =
        (slots_[0].scan == nullptr || slots_[0].tid == tid) ? slots_[0]
                                                            : slots_[1];
    if (slot.scan != nullptr && slot.tid == tid && slot.sid == sid) {
      ++stats->scans_reused;
      return slot.scan;
    }
    // Pinned-epoch view queries: a list retired after the view's epoch is
    // served from the version store's pre-image; untouched lists fall
    // through to the live index (docs/MVCC.md). Both count as index reads.
    ElementScan fresh;
    if (versions_ != nullptr) fresh = versions_->ScanAt(tid, sid);
    if (fresh == nullptr) fresh = index_->GetScan(tid, sid);
    // The registry mirrors LazyJoinStats here, at the single point a real
    // index read happens — the same place the per-query counter
    // increments, so the two can never drift.
    LAZYXML_METRIC_COUNTER(fetched_counter, "join.elements_fetched");
    fetched_counter.Add(fresh->size());
    stats->elements_fetched += fresh->size();
    slot = Slot{tid, sid, fresh};
    return fresh;
  }

  /// The Fig. 9 push filter of `seg`'s scan: the elements straddling at
  /// least one child splice position.
  ElementScan FetchFiltered(TagId tid, const SegmentNode& seg,
                            LazyJoinStats* stats) {
    LAZYXML_METRIC_COUNTER(straddle_counter, "join.straddle_filters");
    straddle_counter.Increment();
    std::vector<uint64_t> splices;
    splices.reserve(seg.children.size());
    for (const SegmentNode* c : seg.children) splices.push_back(c->lp);
    auto filtered = std::make_shared<std::vector<LocalElement>>();
    ElementScan raw = Fetch(tid, seg.sid, stats);
    for (const LocalElement& a : *raw) {
      auto it = std::upper_bound(splices.begin(), splices.end(), a.start);
      if (it != splices.end() && *it < a.end) filtered->push_back(a);
    }
    return filtered;
  }

 private:
  const ElementIndex* index_;
  const ScanVersionSource* versions_;
  struct Slot {
    TagId tid = 0;
    SegmentId sid = 0;
    ElementScan scan;
  };
  Slot slots_[2];
};

/// Drops the entries of `list` whose segment is not in `keep` (the
/// path-summary sid filter), counting them into `stats`. The survivors
/// keep their tag-list order, so the kernel sees the same laminar segment
/// geometry minus pairless segments — output is byte-identical to the
/// unpruned run (docs/PATH_SUMMARY.md).
std::span<const TagListEntry> FilterEntries(
    std::span<const TagListEntry> list,
    const std::unordered_set<SegmentId>* keep,
    std::vector<TagListEntry>* storage, LazyJoinStats* stats) {
  if (keep == nullptr) return list;
  storage->reserve(list.size());
  for (const TagListEntry& e : list) {
    if (keep->count(e.sid()) != 0) {
      storage->push_back(e);
    } else {
      ++stats->segments_pruned;
      stats->elements_skipped += e.count;
    }
  }
  return std::span<const TagListEntry>(*storage);
}

struct StackEntry {
  const SegmentNode* seg = nullptr;
  /// The unfiltered scan, or the straddle-filtered one under
  /// optimize_stack. Never mutated; the prune state lives in `live`.
  ElementScan scan;
  size_t live = 0;        // prune cursor into the element positions
  uint64_t cached_p = 0;  // splice pos toward the entry above
  bool has_cached_p = false;
};

}  // namespace

Result<LazyJoinResult> LazyJoin(const UpdateLog& log,
                                const ElementIndex& index,
                                TagId ancestor_tid, TagId descendant_tid,
                                const LazyJoinOptions& options,
                                const ScanVersionSource* versions) {
  obs::TraceSpan query_span("join.query");
  LAZYXML_METRIC_COUNTER(queries_counter, "join.queries");
  LAZYXML_METRIC_HISTOGRAM(query_hist, "join.query_us");
  queries_counter.Increment();
  obs::ScopedLatency query_latency(query_hist);

  LazyJoinResult out;
  LazyJoinStats& stats = out.stats;
  SegmentResolver resolver;
  ResolvedEntries ra;
  ResolvedEntries rd;
  // Backing storage for the filtered entry spans when a sid filter is set.
  std::vector<TagListEntry> filtered_a;
  std::vector<TagListEntry> filtered_d;
  {
    obs::TraceSpan prepare_span("join.prepare");
    if (!log.frozen()) {
      return Status::Internal("LazyJoin on an unfrozen LS update log");
    }
    if (!log.tag_list().sorted()) {
      return Status::Internal("LazyJoin on an unsorted tag-list");
    }
    // Path-summary sid filters: drop entries whose segment provably
    // cannot contribute a pair, before anything is resolved or fetched.
    std::span<const TagListEntry> sl_a =
        FilterEntries(log.tag_list().EntriesFor(ancestor_tid),
                      options.ancestor_sid_filter, &filtered_a, &stats);
    std::span<const TagListEntry> sl_d =
        FilterEntries(log.tag_list().EntriesFor(descendant_tid),
                      options.descendant_sid_filter, &filtered_d, &stats);
    if (stats.segments_pruned > 0) {
      LAZYXML_METRIC_COUNTER(pruned_counter, "query.segments_pruned_total");
      LAZYXML_METRIC_COUNTER(skipped_counter, "query.elements_skipped_total");
      pruned_counter.Add(stats.segments_pruned);
      skipped_counter.Add(stats.elements_skipped);
    }
    if (sl_a.empty() || sl_d.empty()) return out;
    LAZYXML_RETURN_NOT_OK(resolver.ResolveList(log, sl_a, &ra));
    LAZYXML_RETURN_NOT_OK(resolver.ResolveList(log, sl_d, &rd));
  }

  obs::TraceSpan rounds_span("join.rounds");
  LAZYXML_METRIC_COUNTER(rounds_counter, "join.rounds");
  const std::span<const TagListEntry> sl_a = ra.entries;
  const std::span<const TagListEntry> sl_d = rd.entries;
  rounds_counter.Add(sl_d.size());
  ScanFetcher fetcher(&index, versions);
  SpliceMemo memo(&resolver);

  // Pre-size the output from the tag-list counts of the descendant
  // segments: exact for a parent-child join whose every descendant has
  // its parent, and the first guess otherwise.
  uint64_t expected = 0;
  for (const TagListEntry& de : sl_d) expected += de.count;
  out.pairs.reserve(expected);

  std::vector<StackEntry> stack;
  size_t ia = 0;
  for (size_t id = 0; id < sl_d.size(); ++id) {
    const TagListEntry& de = sl_d[id];
    const SegmentNode* sd = rd.nodes[id];

    // Step 1 (pop): segments ending at or before sd's start are done —
    // SL_D is position-ordered, so they can never contain a later segment.
    while (!stack.empty() && sd->gp >= stack.back().seg->end()) {
      stack.pop_back();
    }

    // Step 2 (push): consume A-segments positioned before sd. Each either
    // contains sd (candidate ancestor: push) or is disjoint (skip — it
    // ends before sd starts, so it ends before everything later too).
    while (ia < sl_a.size()) {
      const TagListEntry& ae = sl_a[ia];
      const SegmentNode* sa = ra.nodes[ia];
      if (sa->gp >= sd->gp) break;
      ++ia;
      if (!sa->ContainsSegment(*sd)) {
        ++stats.segments_skipped;
        continue;
      }
      if (options.optimize_stack && sa->children.empty()) {
        // No child segments: no descendant segments, no cross joins.
        ++stats.segments_skipped;
        continue;
      }
      // Fig. 9 push filter under optimize_stack: keep only the elements
      // straddling at least one child splice position.
      StackEntry entry;
      entry.seg = sa;
      entry.scan = options.optimize_stack
                       ? fetcher.FetchFiltered(ancestor_tid, *sa, &stats)
                       : fetcher.Fetch(ancestor_tid, ae.sid(), &stats);
      if (options.optimize_stack && entry.scan->empty()) {
        ++stats.segments_skipped;
        continue;
      }
      if (!stack.empty()) {
        // Cache the splice position of the previous top toward the new
        // top: every future descendant segment handled while the new top
        // lives enters the previous top through this same child. Also
        // prune previous-top elements that end at or before it — splice
        // positions only grow, so they are dead.
        StackEntry& below = stack.back();
        uint64_t p = 0;
        if (memo.Find(ae.path, below.seg->sid, &p)) {
          below.cached_p = p;
          below.has_cached_p = true;
          if (options.optimize_stack) {
            const std::vector<LocalElement>& bs = *below.scan;
            while (below.live < bs.size() && bs[below.live].end <= p) {
              ++below.live;
            }
          }
        }
      }
      stack.push_back(std::move(entry));
      ++stats.segments_pushed;
    }

    // Step 3 (join generation): every stack entry contains sd; emit cross
    // joins by Proposition 3(2), then in-segment joins if sd itself also
    // carries A-elements.
    ElementScan delems;
    auto load_delems = [&]() {
      if (delems == nullptr) {
        delems = fetcher.Fetch(descendant_tid, de.sid(), &stats);
      }
    };

    for (size_t si = 0; si < stack.size(); ++si) {
      StackEntry& e = stack[si];
      uint64_t p = 0;
      if (si + 1 < stack.size()) {
        if (!e.has_cached_p) continue;
        p = e.cached_p;
      } else {
        if (!memo.Find(de.path, e.seg->sid, &p)) continue;
      }
      const bool is_top = (si + 1 == stack.size());
      const std::vector<LocalElement>& es = *e.scan;
      for (size_t ei = e.live; ei < es.size(); ++ei) {
        const LocalElement& a = es[ei];
        if (a.start >= p) break;  // frozen order: no later element straddles
        if (a.end <= p) {
          if (options.optimize_stack && is_top && ei == e.live) {
            ++e.live;  // dead for every future splice position too
          }
          continue;
        }
        load_delems();
        for (const LocalElement& d : *delems) {
          if (options.parent_child && a.level + 1 != d.level) continue;
          out.pairs.push_back(
              LazyJoinPair{e.seg->sid, a.start, de.sid(), d.start});
          ++stats.cross_segment_pairs;
        }
      }
    }

    // In-segment joins: sd appears in SL_A too iff the current A cursor
    // points at the very same segment (both lists are position-ordered).
    // The A-scan fetched here is served again from the fetcher's slot by
    // the Step 2 push attempt of the same segment next round (and, in a
    // self-join, by load_delems below) instead of re-reading the index.
    if (ia < sl_a.size() && sl_a[ia].sid() == de.sid()) {
      ElementScan aelems = fetcher.Fetch(ancestor_tid, de.sid(), &stats);
      load_delems();
      // Frozen local coordinates nest properly within one segment, so any
      // traditional structural join applies (paper §4.2); Stack-Tree-Desc
      // is used as in the paper, directly over the frozen coordinates.
      const SegmentId sid = de.sid();
      StackTreeDescVisit(
          *aelems, *delems, options.parent_child,
          [&out, &stats, sid](const LocalElement& a, const LocalElement& d) {
            out.pairs.push_back(LazyJoinPair{sid, a.start, sid, d.start});
            ++stats.in_segment_pairs;
          });
      // Do not advance ia: the same segment is also a cross-join ancestor
      // candidate for later descendant segments (Step 2 next round).
    }
  }
  return out;
}

Result<LazyJoinResult> LazyJoinByName(const UpdateLog& log,
                                      const ElementIndex& index,
                                      const TagDict& dict,
                                      const PathSummary* summary,
                                      std::string_view ancestor_tag,
                                      std::string_view descendant_tag,
                                      const LazyJoinOptions& options,
                                      const ScanVersionSource* versions) {
  auto a = dict.Lookup(ancestor_tag);
  auto d = dict.Lookup(descendant_tag);
  if (!a.ok() || !d.ok()) return LazyJoinResult{};  // unknown tag: empty
  const TagId atid = a.ValueOrDie();
  const TagId dtid = d.ValueOrDie();

  // Path-summary pruning. Consult-only: a stale summary arrives as
  // nullptr and the join simply runs unpruned — never rebuilt here,
  // because this path executes under ConcurrentLazyDatabase's *shared*
  // lock (rebuilds happen in Freeze / SetQueryOptions / restore, all
  // exclusive).
  JoinPrune prune;
  if (summary != nullptr) {
    prune = summary->ComputeJoinPrune(atid, dtid, options.parent_child);
  }
  LazyJoinOptions jopts = options;
  if (prune.usable) {
    if (prune.provably_empty) {
      // Answered in O(summary): no tag list is scanned, no element is
      // fetched. The stats report what the unpruned join would have had
      // to consider.
      LazyJoinResult out;
      for (const TagListEntry& e : log.tag_list().EntriesFor(atid)) {
        ++out.stats.segments_pruned;
        out.stats.elements_skipped += e.count;
      }
      for (const TagListEntry& e : log.tag_list().EntriesFor(dtid)) {
        ++out.stats.segments_pruned;
        out.stats.elements_skipped += e.count;
      }
      LAZYXML_METRIC_COUNTER(pruned_joins, "query.joins_pruned_total");
      LAZYXML_METRIC_COUNTER(pruned_segs, "query.segments_pruned_total");
      LAZYXML_METRIC_COUNTER(skipped, "query.elements_skipped_total");
      pruned_joins.Increment();
      pruned_segs.Add(out.stats.segments_pruned);
      skipped.Add(out.stats.elements_skipped);
      return out;
    }
    jopts.ancestor_sid_filter = &prune.ancestor_sids;
    jopts.descendant_sid_filter = &prune.descendant_sids;
  }
  return LazyJoin(log, index, atid, dtid, jopts, versions);
}

}  // namespace lazyxml
