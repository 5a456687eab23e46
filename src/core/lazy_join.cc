#include "core/lazy_join.h"

#include <algorithm>
#include <utility>

#include "core/lazy_join_internal.h"
#include "join/global_element.h"
#include "join/stack_tree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lazyxml {
namespace internal {

Status SegmentResolver::ResolveList(const UpdateLog& log,
                                    std::span<const TagListEntry> entries,
                                    ResolvedEntries* out) {
  out->entries = entries;
  out->nodes.clear();
  out->nodes.reserve(entries.size());
  for (const TagListEntry& e : entries) {
    // path[0] is the dummy root and is never a splice child nor a tag-list
    // sid, so it needs no node.
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

bool SpliceMemo::Find(const std::vector<SegmentId>& path, SegmentId anc,
                      uint64_t* p_out) {
  if (path_ != &path) {
    // New path: rebuild the inner-node -> child-splice map. Tag-list paths
    // are stable for the lifetime of a frozen query, so pointer identity
    // is a sound memo key.
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

BlockCursor::BlockCursor(CompactScanHandle scan, uint64_t* fetched)
    : scan_(std::move(scan)), fetched_(fetched) {
  if (scan_ == nullptr || scan_->count() == 0) return;
  size_ = scan_->count();
  prefix_.reserve(scan_->num_blocks());
  uint64_t running = 0;
  for (size_t b = 0; b < scan_->num_blocks(); ++b) {
    running += scan_->header(b).count;
    prefix_.push_back(running);
  }
  buf_.resize(kCompactBlockMaxRecords);
}

const LocalElement& BlockCursor::Load(size_t i) {
  LAZYXML_CHECK(scan_ != nullptr && i < size_);
  const size_t b = static_cast<size_t>(
      std::upper_bound(prefix_.begin(), prefix_.end(), i) - prefix_.begin());
  {
    LAZYXML_METRIC_HISTOGRAM(decode_hist, "compact.decode_us");
    obs::ScopedLatency decode_latency(decode_hist);
    // The compact index is validated at build / snapshot load (invariant
    // I-COMPACT), so a decode failure here is memory corruption, not bad
    // input — fail hard rather than emit a wrong join.
    LAZYXML_CHECK(scan_->DecodeBlock(b, buf_.data()).ok());
  }
  const CompactBlockHeader& hdr = scan_->header(b);
  cur_hi_ = prefix_[b];
  cur_lo_ = cur_hi_ - hdr.count;
  // Store-read accounting mirrors ScanFetcher::Fetch: a decoded block is
  // a real backing-store read (see lazy_join.h on elements_fetched).
  if (fetched_ != nullptr) *fetched_ += hdr.count;
  LAZYXML_METRIC_COUNTER(fetched_counter, "join.elements_fetched");
  fetched_counter.Add(hdr.count);
  return buf_[i - cur_lo_];
}

ElementScan ScanFetcher::Fetch(TagId tid, SegmentId sid,
                               LazyJoinStats* stats) {
  // One slot per tag role: slot 0 serves the first tid seen (both roles of
  // a self-join collapse onto it), slot 1 the other.
  Slot& slot =
      (slots_[0].scan == nullptr || slots_[0].tid == tid) ? slots_[0]
                                                          : slots_[1];
  if (slot.scan != nullptr && slot.tid == tid && slot.sid == sid) {
    ++stats->scan_cache_hits;
    return slot.scan;
  }
  if (compact_ != nullptr) {
    // Compact mode: decode the whole list from the in-memory compact
    // store. Decoded raw lists go through the shared cache exactly like
    // tree-mode scans: a hot list is then decoded once per epoch, so at
    // an equal cache budget compact-scan joins run the same hit path as
    // tree-scan joins — the cache budget, not the representation, bounds
    // how much decoded data stays resident next to the compressed index.
    if (cache_ != nullptr) {
      if (ElementScan hit = cache_->Get(tid, sid, epoch_)) {
        ++stats->scan_cache_hits;
        slot = Slot{tid, sid, hit};
        return hit;
      }
    }
    auto fresh = std::make_shared<std::vector<LocalElement>>();
    if (CompactScanHandle list = compact_->GetList(tid, sid)) {
      LAZYXML_METRIC_HISTOGRAM(decode_hist, "compact.decode_us");
      obs::ScopedLatency decode_latency(decode_hist);
      LAZYXML_CHECK(list->DecodeAll(fresh.get()).ok());
    }
    LAZYXML_METRIC_COUNTER(fetched_counter, "join.elements_fetched");
    fetched_counter.Add(fresh->size());
    stats->elements_fetched += fresh->size();
    ElementScan scan = std::move(fresh);
    if (cache_ != nullptr) cache_->Put(tid, sid, epoch_, scan);
    slot = Slot{tid, sid, scan};
    return scan;
  }
  if (cache_ != nullptr) {
    if (ElementScan hit = cache_->Get(tid, sid, epoch_)) {
      ++stats->scan_cache_hits;
      slot = Slot{tid, sid, hit};
      return hit;
    }
  }
  // Pinned-epoch view queries: a list retired after the view's epoch is
  // served from the version store's pre-image; untouched lists fall
  // through to the live index (docs/MVCC.md). Both count as store reads.
  ElementScan fresh;
  if (versions_ != nullptr) fresh = versions_->ScanAt(tid, sid);
  if (fresh == nullptr) fresh = index_->GetScan(tid, sid);
  // The registry mirrors LazyJoinStats here, at the single point a real
  // index read happens — the same place the per-query counter increments,
  // so the two can never drift (the elements_fetched double-count class).
  LAZYXML_METRIC_COUNTER(fetched_counter, "join.elements_fetched");
  fetched_counter.Add(fresh->size());
  stats->elements_fetched += fresh->size();
  ElementScan scan = std::move(fresh);
  if (cache_ != nullptr) cache_->Put(tid, sid, epoch_, scan);
  slot = Slot{tid, sid, scan};
  return scan;
}

ElementScan ScanFetcher::FetchFiltered(TagId tid, const SegmentNode& seg,
                                       LazyJoinStats* stats) {
  if (cache_ != nullptr) {
    if (compact_ != nullptr) {
      // Compact mode caches filtered scans *compressed* — the budget then
      // admits more straddler lists by the compression ratio.
      if (CompactScanHandle hit =
              cache_->GetCompact(tid, seg.sid, epoch_, ScanKind::kStraddle)) {
        ++stats->scan_cache_hits;
        auto decoded = std::make_shared<std::vector<LocalElement>>();
        LAZYXML_METRIC_HISTOGRAM(decode_hist, "compact.decode_us");
        obs::ScopedLatency decode_latency(decode_hist);
        LAZYXML_CHECK(hit->DecodeAll(decoded.get()).ok());
        return decoded;
      }
    } else if (ElementScan hit =
                   cache_->Get(tid, seg.sid, epoch_, ScanKind::kStraddle)) {
      ++stats->scan_cache_hits;
      return hit;
    }
  }
  LAZYXML_METRIC_COUNTER(straddle_counter, "join.straddle_filters");
  straddle_counter.Increment();
  std::vector<uint64_t> splices;
  splices.reserve(seg.children.size());
  for (const SegmentNode* c : seg.children) splices.push_back(c->lp);
  auto filtered = std::make_shared<std::vector<LocalElement>>();

  if (compact_ != nullptr) {
    // Filter block-at-a-time straight off the compressed stream. A
    // straddler needs some splice p with start < p < end; every record of
    // a block has start >= header.first_start and end <= header.max_end,
    // so a block can only hold one if some splice lies in the open
    // interval (first_start, max_end) — otherwise skip it undecoded.
    if (CompactScanHandle list = compact_->GetList(tid, seg.sid);
        list != nullptr && !splices.empty()) {
      LAZYXML_METRIC_COUNTER(skip_counter, "join.blocks_skipped_total");
      LAZYXML_METRIC_COUNTER(fetched_counter, "join.elements_fetched");
      LAZYXML_METRIC_HISTOGRAM(decode_hist, "compact.decode_us");
      LocalElement buf[kCompactBlockMaxRecords];
      for (size_t b = 0; b < list->num_blocks(); ++b) {
        const CompactBlockHeader& hdr = list->header(b);
        auto it = std::upper_bound(splices.begin(), splices.end(),
                                   hdr.first_start);
        if (it == splices.end() || *it >= hdr.max_end) {
          ++stats->blocks_skipped;
          skip_counter.Increment();
          continue;
        }
        {
          obs::ScopedLatency decode_latency(decode_hist);
          LAZYXML_CHECK(list->DecodeBlock(b, buf).ok());
        }
        fetched_counter.Add(hdr.count);
        stats->elements_fetched += hdr.count;
        for (uint32_t i = 0; i < hdr.count; ++i) {
          const LocalElement& a = buf[i];
          auto jt = std::upper_bound(splices.begin(), splices.end(), a.start);
          if (jt != splices.end() && *jt < a.end) filtered->push_back(a);
        }
      }
    }
    ElementScan scan = std::move(filtered);
    if (cache_ != nullptr) {
      // Re-encode the (typically tiny) straddler list; filtered scans are
      // strictly-ascending sub-sequences of a valid list, so Encode cannot
      // fail on them.
      auto encoded = CompactTagScan::Encode(*scan);
      LAZYXML_CHECK(encoded.ok());
      cache_->PutCompact(tid, seg.sid, epoch_,
                         std::make_shared<const CompactTagScan>(
                             std::move(encoded).ValueOrDie()),
                         ScanKind::kStraddle);
    }
    return scan;
  }

  ElementScan raw = Fetch(tid, seg.sid, stats);
  for (const LocalElement& a : *raw) {
    auto it = std::upper_bound(splices.begin(), splices.end(), a.start);
    if (it != splices.end() && *it < a.end) filtered->push_back(a);
  }
  ElementScan scan = std::move(filtered);
  if (cache_ != nullptr) {
    cache_->Put(tid, seg.sid, epoch_, scan, ScanKind::kStraddle);
  }
  return scan;
}

BlockCursor ScanFetcher::FetchCursor(TagId tid, SegmentId sid,
                                     LazyJoinStats* stats) {
  LAZYXML_DCHECK(compact_ != nullptr);
  return BlockCursor(compact_->GetList(tid, sid), &stats->elements_fetched);
}

Status PrepareJoinContext(const UpdateLog& log, const ElementIndex& index,
                          TagId ancestor_tid, TagId descendant_tid,
                          const LazyJoinOptions& options,
                          ElementScanCache* cache, uint64_t cache_epoch,
                          const CompactElementIndex* compact,
                          JoinContext* ctx, bool* empty,
                          const ScanVersionSource* versions) {
  if (!log.frozen()) {
    return Status::Internal("LazyJoin on an unfrozen LS update log");
  }
  if (!log.tag_list().sorted()) {
    return Status::Internal("LazyJoin on an unsorted tag-list");
  }
  ctx->log = &log;
  ctx->index = &index;
  ctx->compact = compact;
  ctx->ancestor_tid = ancestor_tid;
  ctx->descendant_tid = descendant_tid;
  ctx->options = options;
  ctx->cache = cache;
  ctx->cache_epoch = cache_epoch;
  ctx->versions = versions;
  std::span<const TagListEntry> sl_a = log.tag_list().EntriesFor(ancestor_tid);
  std::span<const TagListEntry> sl_d = log.tag_list().EntriesFor(descendant_tid);
  // Path-summary sid filters: drop entries whose segment provably cannot
  // contribute a pair, before anything is resolved or fetched. The
  // survivors keep their tag-list order, so the kernel sees the same
  // laminar segment geometry minus pairless segments — output is
  // byte-identical to the unpruned run (docs/PATH_SUMMARY.md).
  const auto apply_filter = [ctx](std::span<const TagListEntry> list,
                                  const std::unordered_set<SegmentId>* keep,
                                  std::vector<TagListEntry>* storage) {
    if (keep == nullptr) return list;
    storage->reserve(list.size());
    for (const TagListEntry& e : list) {
      if (keep->count(e.sid()) != 0) {
        storage->push_back(e);
      } else {
        ++ctx->segments_pruned;
        ctx->elements_skipped += e.count;
      }
    }
    return std::span<const TagListEntry>(*storage);
  };
  sl_a = apply_filter(sl_a, options.ancestor_sid_filter, &ctx->filtered_a);
  sl_d = apply_filter(sl_d, options.descendant_sid_filter, &ctx->filtered_d);
  if (ctx->segments_pruned > 0) {
    LAZYXML_METRIC_COUNTER(pruned_counter, "query.segments_pruned_total");
    LAZYXML_METRIC_COUNTER(skipped_counter, "query.elements_skipped_total");
    pruned_counter.Add(ctx->segments_pruned);
    skipped_counter.Add(ctx->elements_skipped);
  }
  *empty = sl_a.empty() || sl_d.empty();
  if (*empty) return Status::OK();
  LAZYXML_RETURN_NOT_OK(ctx->resolver.ResolveList(log, sl_a, &ctx->sl_a));
  LAZYXML_RETURN_NOT_OK(ctx->resolver.ResolveList(log, sl_d, &ctx->sl_d));
  return Status::OK();
}

namespace {

struct StackEntry {
  const SegmentNode* seg = nullptr;
  /// Materialized scan: unfiltered tree scan, or the straddle-filtered
  /// list under optimize_stack (both modes). Never mutated, so it is safe
  /// to share across partitions and queries; the prune state lives in
  /// `live`, per entry. Null when the entry reads through `cursor`.
  ElementScan scan;
  /// Compact-mode unfiltered entry: block-at-a-time decoding cursor
  /// (positions match the materialized scan record-for-record, so the
  /// loops below are representation-agnostic).
  BlockCursor cursor;
  size_t live = 0;        // prune cursor into the element positions
  uint64_t cached_p = 0;  // splice pos toward the entry above
  bool has_cached_p = false;

  size_t count() const { return scan != nullptr ? scan->size() : cursor.size(); }
  const LocalElement& At(size_t i) {
    return scan != nullptr ? (*scan)[i] : cursor.At(i);
  }
};

// Fetches + (when optimizing) straddle-filters the stack entry for SL_A
// index `idx` (the serial Fig. 9 push filter: keep only elements
// straddling at least one child splice position).
StackEntry MakeStackEntry(const JoinContext& ctx, ScanFetcher* fetcher,
                          size_t idx, LazyJoinStats* stats) {
  StackEntry entry;
  entry.seg = ctx.sl_a.nodes[idx];
  if (ctx.options.optimize_stack) {
    entry.scan = fetcher->FetchFiltered(ctx.ancestor_tid, *entry.seg, stats);
  } else if (ctx.compact != nullptr) {
    entry.cursor = fetcher->FetchCursor(
        ctx.ancestor_tid, ctx.sl_a.entries[idx].sid(), stats);
  } else {
    entry.scan =
        fetcher->Fetch(ctx.ancestor_tid, ctx.sl_a.entries[idx].sid(), stats);
  }
  return entry;
}

}  // namespace

Status RunJoinPartition(const JoinContext& ctx, const PartitionSeed& seed,
                        LazyJoinResult* out) {
  // Per-partition rounds span + latency: on pool threads the span opens
  // its own trace (correlate with the query's "join.rounds" span by
  // time); the histogram is what the scaling analysis reads.
  obs::TraceSpan partition_span("join.partition");
  LAZYXML_METRIC_HISTOGRAM(partition_hist, "join.partition_us");
  obs::ScopedLatency partition_latency(partition_hist);
  LAZYXML_METRIC_COUNTER(rounds_counter, "join.rounds");
  rounds_counter.Add(seed.d_end - seed.d_begin);
  const std::span<const TagListEntry> sl_a = ctx.sl_a.entries;
  const std::span<const TagListEntry> sl_d = ctx.sl_d.entries;
  const LazyJoinOptions& options = ctx.options;
  LazyJoinStats& stats = out->stats;
  ScanFetcher fetcher(ctx.index, ctx.cache, ctx.cache_epoch, ctx.compact,
                      ctx.versions);
  SpliceMemo memo(&ctx.resolver);

  // Pre-size the output from the tag-list counts of the partition's
  // descendant segments: exact for a parent-child join whose every
  // descendant has its parent, and the first guess otherwise.
  uint64_t expected = 0;
  for (size_t id = seed.d_begin; id < seed.d_end; ++id) {
    expected += sl_d[id].count;
  }
  out->pairs.reserve(out->pairs.size() + expected);

  // Seed reconstruction: rebuild the entries live at round d_begin. Their
  // cached splice positions are recomputed from the entry directly above
  // (the path to anything nested inside the entry above enters `below`
  // through the same child, so the value matches what the serial run
  // cached at push time). Prune cursors start at 0 — pruning is a pure
  // optimization; the `a.start >= p` / `a.end <= p` guards re-filter.
  // Seeded entries are NOT counted as pushes: the serial run pushed them
  // in an earlier partition's rounds.
  std::vector<StackEntry> stack;
  stack.reserve(seed.live_stack.size() + 8);
  for (size_t idx : seed.live_stack) {
    StackEntry entry = MakeStackEntry(ctx, &fetcher, idx, &stats);
    if (!stack.empty()) {
      StackEntry& below = stack.back();
      uint64_t p = 0;
      if (memo.Find(sl_a[idx].path, below.seg->sid, &p)) {
        below.cached_p = p;
        below.has_cached_p = true;
      }
    }
    stack.push_back(std::move(entry));
  }

  size_t ia = seed.ia_begin;
  for (size_t id = seed.d_begin; id < seed.d_end; ++id) {
    const TagListEntry& de = sl_d[id];
    const SegmentNode* sd = ctx.sl_d.nodes[id];

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
      const SegmentNode* sa = ctx.sl_a.nodes[ia];
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
      StackEntry entry = MakeStackEntry(ctx, &fetcher, ia - 1, &stats);
      if (options.optimize_stack && entry.count() == 0) {
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
            const size_t bn = below.count();
            while (below.live < bn && below.At(below.live).end <= p) {
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
        delems = fetcher.Fetch(ctx.descendant_tid, de.sid(), &stats);
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
      const size_t en = e.count();
      for (size_t ei = e.live; ei < en; ++ei) {
        // Copy, not reference: a cursor-backed entry's At() buffer is
        // re-filled on the next block load.
        const LocalElement a = e.At(ei);
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
          out->pairs.push_back(
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
      ElementScan aelems = fetcher.Fetch(ctx.ancestor_tid, de.sid(), &stats);
      load_delems();
      // Frozen local coordinates nest properly within one segment, so any
      // traditional structural join applies (paper §4.2); Stack-Tree-Desc
      // is used as in the paper, directly over the frozen coordinates.
      const SegmentId sid = de.sid();
      StackTreeDescVisit(
          *aelems, *delems, options.parent_child,
          [out, &stats, sid](const LocalElement& a, const LocalElement& d) {
            out->pairs.push_back(LazyJoinPair{sid, a.start, sid, d.start});
            ++stats.in_segment_pairs;
          });
      // Do not advance ia: the same segment is also a cross-join ancestor
      // candidate for later descendant segments (Step 2 next round).
    }
  }
  return Status::OK();
}

}  // namespace internal

Result<LazyJoinResult> LazyJoin(const UpdateLog& log,
                                const ElementIndex& index, TagId ancestor_tid,
                                TagId descendant_tid,
                                const LazyJoinOptions& options,
                                const CompactElementIndex* compact) {
  obs::TraceSpan query_span("join.query");
  LAZYXML_METRIC_COUNTER(queries_counter, "join.queries");
  queries_counter.Increment();
  internal::JoinContext ctx;
  bool empty = false;
  {
    obs::TraceSpan prepare_span("join.prepare");
    LAZYXML_RETURN_NOT_OK(internal::PrepareJoinContext(
        log, index, ancestor_tid, descendant_tid, options,
        /*cache=*/nullptr, /*cache_epoch=*/0, compact, &ctx, &empty));
  }
  LazyJoinResult out;
  out.stats.segments_pruned = ctx.segments_pruned;
  out.stats.elements_skipped = ctx.elements_skipped;
  if (empty) return out;
  internal::PartitionSeed whole;
  whole.d_begin = 0;
  whole.d_end = ctx.sl_d.entries.size();
  LAZYXML_RETURN_NOT_OK(internal::RunJoinPartition(ctx, whole, &out));
  return out;
}

}  // namespace lazyxml
