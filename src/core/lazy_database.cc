#include "core/lazy_database.h"

#include <algorithm>
#include <map>

#include "check/database_check.h"
#include "common/strings.h"
#include "core/global_converter.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xml/parser.h"

namespace lazyxml {

namespace {

// In paranoid builds every mutating facade operation re-verifies the full
// cross-structure state, so a latent violation surfaces at the op that
// introduced it instead of at some later query.
Status ParanoidCheck(const LazyDatabase& db) {
#if defined(LAZYXML_PARANOID_CHECKS)
  auto report = check::CheckDatabase(db);
  LAZYXML_RETURN_NOT_OK(report.status());
  return report.ValueOrDie().ToStatus();
#else
  (void)db;
  return Status::OK();
#endif
}

}  // namespace

LazyDatabase::LazyDatabase(LazyDatabaseOptions options)
    : options_(options),
      log_(UpdateLog::Options{options.mode, options.sb_tree_options}),
      index_(options.element_index_options) {
  SetQueryOptions(options.query);
}

void LazyDatabase::SetQueryOptions(const QueryOptions& query) {
  options_.query = query;
  // Build failures (corrupt structure) surface on the scrubber / the
  // next restore; a failed build just leaves the summary stale, which
  // silently disables pruning.
  (void)EnsurePathSummary();
}

Result<SegmentId> LazyDatabase::InsertSegment(std::string_view text,
                                              uint64_t gp) {
  // Bumped up front: a partially applied mutation is a new state. A
  // failure *before* the first structural mutation rolls the bump back —
  // the state is provably unchanged, so it keeps its epoch (read views
  // pinned at it stay current).
  ++mutation_epoch_;
  SummaryBeginMutation();
  bool mutated = false;
  Result<SegmentId> r = InsertSegmentImpl(text, gp, nullptr, &mutated);
  if (!r.ok() && !mutated) --mutation_epoch_;
  // Committed even on failure: a pre-mutation failure (parse error) left
  // tracking armed and the summary still matches the unchanged state; a
  // mid-mutation failure disarmed it, leaving the summary stale.
  SummaryCommit();
  LAZYXML_ASSIGN_OR_RETURN(SegmentId sid, std::move(r));
  if (capture_ != nullptr) {
    LAZYXML_RETURN_NOT_OK(capture_->OnInsertSegment(sid, text, gp));
  }
  LAZYXML_RETURN_NOT_OK(ParanoidCheck(*this));
  return sid;
}

Result<SegmentId> LazyDatabase::InsertSegmentImpl(
    std::string_view text, uint64_t gp,
    std::vector<ElementIndexRecord>* deferred, bool* mutated) {
  // Parse first: a malformed segment must not touch any structure.
  ParseOptions popts;
  popts.require_single_root = true;
  auto parsed_r = ParseFragment(text, &dict_, popts);
  if (!parsed_r.ok()) {
    return parsed_r.status().WithContext("inserting segment");
  }
  ParsedFragment parsed = std::move(parsed_r).ValueOrDie();

  // First structural mutation: disarm summary tracking until the
  // maintenance at the end of this method succeeds. (AddSegment is
  // conservatively counted as mutating even when it rejects the
  // position — the epoch bump then stays, which is always safe.)
  const bool summary_was_tracking = summary_track_;
  summary_track_ = false;
  if (mutated != nullptr) *mutated = true;
  LAZYXML_ASSIGN_OR_RETURN(UpdateLog::InsertInfo info,
                           log_.AddSegment(gp, text.size()));

  // Depth of the splice point: the innermost parent-segment element
  // containing it (via the parent's nesting summary), else the parent's
  // own splice depth (recursively established at its insertion).
  const uint32_t base_level =
      info.parent->LevelAt(info.frozen_point, info.parent->base_level);
  info.node->base_level = base_level;
  info.node->distinct_tags = parsed.distinct_tags;
  if (base_level > 0) {
    for (ElementRecord& r : parsed.records) r.level += base_level;
  }

  // Build the segment's nesting summary (records are in preorder; parent
  // links fall out of an interval stack).
  info.node->summary.reserve(parsed.records.size());
  {
    std::vector<uint32_t> stack;
    for (uint32_t i = 0; i < parsed.records.size(); ++i) {
      const ElementRecord& r = parsed.records[i];
      while (!stack.empty() &&
             parsed.records[stack.back()].end <= r.start) {
        stack.pop_back();
      }
      NestingEntry e;
      e.start = r.start;
      e.end = r.end;
      e.level = r.level;
      e.tid = r.tid;
      e.parent = stack.empty() ? kNoParentEntry : stack.back();
      info.node->summary.push_back(e);
      stack.push_back(i);
    }
  }

  if (deferred == nullptr) {
    LAZYXML_RETURN_NOT_OK(index_.InsertRecords(info.sid, parsed.records));
  } else {
    // ApplyBatch defers the index work of a run of consecutive inserts
    // into one sorted-batch tree apply; nothing on this path reads the
    // element index, so the deferral is unobservable.
    for (const ElementRecord& r : parsed.records) {
      deferred->push_back(
          ElementIndexRecord{r.tid, info.sid, r.start, r.end, r.level});
    }
  }

  // Tag-list: one path entry per distinct tag, with occurrence counts
  // (paper §3.3: counts decide when a path dies on deletion).
  std::map<TagId, uint64_t> counts;
  for (const ElementRecord& r : parsed.records) ++counts[r.tid];
  for (const auto& [tid, count] : counts) {
    LAZYXML_RETURN_NOT_OK(
        log_.tag_list().AddEntry(tid, info.path, count, log_));
  }

  if (summary_was_tracking) {
    LAZYXML_METRIC_HISTOGRAM(update_hist, "summary.update_us");
    obs::ScopedLatency update_latency(update_hist);
    const uint32_t ctx = SummaryContextOf(*info.parent, info.frozen_point);
    if (SummaryAddSegment(*info.node, ctx, /*new_elements=*/true)) {
      summary_track_ = true;
    }
    // else: unattributable (stale pre-v4 entries at the splice point) —
    // tracking stays off, the summary goes stale instead of wrong.
  }
  return info.sid;
}

Status LazyDatabase::RemoveSegment(uint64_t gp, uint64_t length) {
  ++mutation_epoch_;
  SummaryBeginMutation();
  bool mutated = false;
  Status st = RemoveSegmentImpl(gp, length, &mutated);
  // A rejected removal (out of bounds, element split) fails in the
  // read-only pre-pass: nothing changed, the epoch stays.
  if (!st.ok() && !mutated) --mutation_epoch_;
  SummaryCommit();
  LAZYXML_RETURN_NOT_OK(st);
  if (capture_ != nullptr) {
    LAZYXML_RETURN_NOT_OK(capture_->OnRemoveRange(gp, length));
  }
  return ParanoidCheck(*this);
}

Status LazyDatabase::RemoveSegmentImpl(uint64_t gp, uint64_t length,
                                       bool* mutated) {
  LAZYXML_ASSIGN_OR_RETURN(UpdateLog::RemovalEffects effects,
                           log_.CollectRemovalEffects(gp, length));

  // Summary decrements are resolved *before* anything is deleted (the
  // element records and nesting chains must still be readable) and
  // applied only after the whole removal succeeded. The partial filter
  // is exactly ElementIndex::DeleteRange's entirely-inside predicate:
  // start >= begin && end <= end implies the other two half-tests.
  const bool summary_was_tracking = summary_track_;
  summary_track_ = false;
  struct Decrement {
    uint32_t node;
    SegmentId sid;
    bool parent_survives;
  };
  std::vector<Decrement> summary_decrements;
  // Per effects.full segment: its top-level elements' nodes, the only
  // ones whose parent may survive the removal.
  std::vector<std::vector<uint32_t>> full_tops;
  bool summary_ok = summary_was_tracking;
  if (summary_was_tracking) {
    LAZYXML_METRIC_HISTOGRAM(update_hist, "summary.update_us");
    obs::ScopedLatency update_latency(update_hist);
    const auto removed = [](const auto& partial, const NestingEntry& e) {
      return e.start >= partial.frozen_begin && e.end <= partial.frozen_end;
    };
    for (const auto& partial : effects.partial) {
      const SegmentNode* seg = log_.NodeOf(partial.sid);
      if (seg == nullptr) {
        summary_ok = false;
        break;
      }
      for (TagId tid : partial.tags) {
        const ElementScan run = index_.GetScan(tid, partial.sid);
        for (const LocalElement& el : *run) {
          if (el.start < partial.frozen_begin || el.end > partial.frozen_end) {
            continue;
          }
          uint32_t entry = kNoParentEntry;
          const uint32_t node = SummaryNodeOfElement(*seg, el.start, &entry);
          if (node == PathSummary::kNoNode) {
            summary_ok = false;
            break;
          }
          const uint32_t parent = seg->summary[entry].parent;
          summary_decrements.push_back(Decrement{
              node, partial.sid,
              parent == kNoParentEntry ||
                  !removed(partial, seg->summary[parent])});
        }
        if (!summary_ok) break;
      }
      if (!summary_ok) break;
    }
    for (const auto& full : effects.full) {
      const SegmentNode* seg = log_.NodeOf(full.sid);
      const uint32_t ctx = summary_->SegmentContext(full.sid);
      std::vector<uint32_t>& tops = full_tops.emplace_back();
      if (seg == nullptr || ctx == PathSummary::kNoNode) continue;
      for (const NestingEntry& e : seg->summary) {
        if (e.parent != kNoParentEntry || e.tid == kNoEntryTag) continue;
        const uint32_t n = summary_->Find(ctx, e.tid);
        if (n != PathSummary::kNoNode) tops.push_back(n);
      }
    }
  }

  if (mutated != nullptr) *mutated = true;
  // MVCC: every (tag, segment) list this removal touches diverges from
  // its state at earlier epochs — hand the runs about to be retired to
  // any open pinned view (docs/MVCC.md). Removals replace runs instead
  // of editing them, so the run itself is the pre-image: no copy.
  if (mvcc_.HasOpenViews()) {
    for (const auto& partial : effects.partial) {
      for (TagId tid : partial.tags) {
        mvcc_.CaptureScan(tid, partial.sid, mutation_epoch_,
                          index_.GetScan(tid, partial.sid));
      }
    }
    for (const auto& full : effects.full) {
      for (TagId tid : full.tags) {
        mvcc_.CaptureScan(tid, full.sid, mutation_epoch_,
                          index_.GetScan(tid, full.sid));
      }
    }
  }

  // Element index first (it needs the pre-removal frozen intervals), then
  // the tag-list (it needs the per-tag deletion counts and the
  // pre-removal global positions), then the tree mutation.
  for (const auto& partial : effects.partial) {
    LAZYXML_ASSIGN_OR_RETURN(
        RemovedCounts counts,
        index_.DeleteRange(partial.sid, partial.tags, partial.frozen_begin,
                           partial.frozen_end));
    for (const auto& [tid, count] : counts) {
      LAZYXML_RETURN_NOT_OK(
          log_.tag_list().RemoveOccurrences(tid, partial.sid, count, log_));
    }
  }
  for (const auto& full : effects.full) {
    LAZYXML_ASSIGN_OR_RETURN(RemovedCounts counts,
                             index_.DeleteSegment(full.sid, full.tags));
    for (const auto& [tid, count] : counts) {
      LAZYXML_RETURN_NOT_OK(
          log_.tag_list().RemoveOccurrences(tid, full.sid, count, log_));
    }
  }
  LAZYXML_RETURN_NOT_OK(log_.ApplyRemoval(effects));

  if (summary_ok) {
    LAZYXML_METRIC_HISTOGRAM(update_hist, "summary.update_us");
    obs::ScopedLatency update_latency(update_hist);
    for (const Decrement& d : summary_decrements) {
      // An underflow here is a real divergence (the I-SUMMARY scrubber
      // flags the same state); surface it like ParanoidCheck would.
      LAZYXML_RETURN_NOT_OK(summary_->RemoveElement(d.node, d.sid));
      summary_->NoteRemovedElement(d.node, d.parent_survives);
    }
    for (size_t i = 0; i < effects.full.size(); ++i) {
      summary_->NoteSegmentRemoved(effects.full[i].sid, full_tops[i]);
      summary_->RemoveSegmentAll(effects.full[i].sid);
    }
    summary_track_ = true;
  }
  return Status::OK();
}

Result<BatchStats> LazyDatabase::ApplyBatch(std::span<const UpdateOp> ops) {
  BatchStats stats;
  LAZYXML_RETURN_NOT_OK(ApplyBatch(ops, &stats));
  return stats;
}

Status LazyDatabase::ApplyBatch(std::span<const UpdateOp> ops,
                                BatchStats* stats_out) {
  obs::TraceSpan batch_span("batch.apply");
  LAZYXML_METRIC_HISTOGRAM(apply_hist, "batch.apply_us");
  obs::ScopedLatency apply_latency(apply_hist);
  BatchStats local;
  BatchStats& stats = stats_out != nullptr ? *stats_out : local;
  stats = BatchStats{};
  stats.ops = ops.size();
  stats.sids.assign(ops.size(), 0);
  if (ops.empty()) return Status::OK();
  ++mutation_epoch_;
  SummaryBeginMutation();
  // Set at the first structural mutation (or burned sid) of any op; a
  // batch failing with it still false provably changed nothing, so the
  // epoch bump is rolled back.
  bool batch_mutated = false;
  if (capture_ != nullptr) {
    Status begin_status = capture_->OnBatchBegin(ops.size());
    if (!begin_status.ok()) {
      --mutation_epoch_;  // nothing mutated: the epoch stays
      SummaryCommit();    // and the summary still matches
      return begin_status;
    }
  }

  // Plan cancellations: an insert immediately followed by a remove of
  // exactly the inserted range is a no-op on the final state, so the
  // structural work can be skipped. Eligibility is simulated against
  // the running super-document length; once an op would fail a bounds
  // check the batch will stop there anyway, so planning ends too.
  std::vector<bool> cancelled(ops.size(), false);
  {
    uint64_t len = log_.super_document_length();
    for (size_t i = 0; i < ops.size(); ++i) {
      const UpdateOp& op = ops[i];
      if (op.kind == UpdateOp::Kind::kInsert) {
        if (op.gp > len) break;  // sequential apply fails here
        if (i + 1 < ops.size() && !op.text.empty()) {
          const UpdateOp& next = ops[i + 1];
          if (next.kind == UpdateOp::Kind::kRemove && next.gp == op.gp &&
              next.length == op.text.size()) {
            // The removal range is exactly the new segment's characters
            // (existing content at >= gp shifted past it), so the pair
            // cancels without touching any neighbour.
            cancelled[i] = cancelled[i + 1] = true;
            ++i;  // skip the remove; len is net unchanged
            continue;
          }
        }
        len += op.text.size();
      } else {
        if (op.gp + op.length > len) break;  // sequential apply fails here
        len -= op.length;
      }
    }
  }

  // Index records deferred across a run of consecutive (non-cancelled)
  // inserts, flushed in one sorted-batch apply before anything that
  // reads the index (a removal) and at batch end. A fresh database gets
  // the bottom-up bulk load instead.
  std::vector<ElementIndexRecord> pending;
  auto flush = [&]() -> Status {
    if (pending.empty()) return Status::OK();
    ++stats.index_flushes;
    stats.index_records += pending.size();
    if (index_.size() == 0) {
      Status s = index_.BuildFrom(std::move(pending));
      pending = std::vector<ElementIndexRecord>();
      return s;
    }
    Status s = index_.InsertRecordsBatch(pending);
    pending.clear();
    return s;
  };

  Status op_status;
  size_t i = 0;
  // Element records in `pending` deferred by the op that ultimately
  // failed. They are still flushed (sequential InsertSegment applies
  // index records before the failure point too) but must not be counted:
  // stats cover exactly the applied prefix.
  size_t rejected_records = 0;
  for (; i < ops.size(); ++i) {
    const UpdateOp& op = ops[i];
    if (cancelled[i]) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        // The pair's net structural effect is zero, but the sequential
        // hidden effects must still happen: the parse surfaces the same
        // error and interns the segment's tags, the sid the insert
        // would take is burned (later sids must match sequential
        // application exactly), and both ops are captured so WAL replay
        // — which knows nothing of batching — reproduces the state.
        ParseOptions popts;
        popts.require_single_root = true;
        auto parsed = ParseFragment(op.text, &dict_, popts);
        if (!parsed.ok()) {
          op_status = parsed.status().WithContext("inserting segment");
          break;
        }
        const SegmentId sid = log_.AllocateSid();
        batch_mutated = true;  // the burned sid is observable state
        stats.sids[i] = sid;
        if (capture_ != nullptr) {
          op_status = capture_->OnInsertSegment(sid, op.text, op.gp);
          if (!op_status.ok()) stats.sids[i] = 0;  // op rejected
        }
      } else {
        if (capture_ != nullptr) {
          op_status = capture_->OnRemoveRange(op.gp, op.length);
        }
        // Counted only once the pair's closing op is fully applied: a
        // capture failure here rejects the remove, and a rejected op
        // must contribute nothing to the stats.
        if (op_status.ok()) ++stats.cancelled_pairs;
      }
      if (!op_status.ok()) break;
      ++stats.applied;
      continue;
    }
    if (op.kind == UpdateOp::Kind::kInsert) {
      const size_t pending_before = pending.size();
      bool op_mutated = false;
      auto r = InsertSegmentImpl(op.text, op.gp, &pending, &op_mutated);
      batch_mutated |= op_mutated;
      if (!r.ok()) {
        op_status = r.status();
        rejected_records = pending.size() - pending_before;
        break;
      }
      stats.sids[i] = r.ValueOrDie();
      if (capture_ != nullptr) {
        op_status = capture_->OnInsertSegment(stats.sids[i], op.text, op.gp);
        if (!op_status.ok()) {
          stats.sids[i] = 0;  // op rejected
          rejected_records = pending.size() - pending_before;
        }
      }
    } else {
      // Removals read the element index; the deferred run must land first.
      op_status = flush();
      if (!op_status.ok()) break;
      bool op_mutated = false;
      op_status = RemoveSegmentImpl(op.gp, op.length, &op_mutated);
      batch_mutated |= op_mutated;
      if (op_status.ok() && capture_ != nullptr) {
        op_status = capture_->OnRemoveRange(op.gp, op.length);
      }
    }
    if (!op_status.ok()) break;
    ++stats.applied;
  }

  // Even on an op error the applied prefix must be complete (flush) and
  // the capture must be closed (the durability layer flushes its
  // buffered records — prefix durability). The op error wins.
  const bool flush_only_rejected =
      rejected_records > 0 && pending.size() == rejected_records;
  Status flush_status = flush();
  Status end_status =
      capture_ != nullptr ? capture_->OnBatchEnd() : Status::OK();
  // A failed deferred flush leaves the element index short of what the
  // per-op maintenance already counted — the summary must go stale too.
  if (!flush_status.ok()) summary_track_ = false;
  // A batch that failed before any structural mutation (first op's parse
  // or bounds error, capture rejection before any sid) changed nothing:
  // roll the epoch back. Must precede SummaryCommit, which stamps the
  // (restored) epoch.
  if (!batch_mutated &&
      (!op_status.ok() || !flush_status.ok() || !end_status.ok())) {
    --mutation_epoch_;
  }
  // Committed on every outcome: each op's Impl kept tracking armed only
  // while the summary matched the applied prefix (prefix semantics).
  SummaryCommit();
  if (rejected_records > 0) {
    // The rejected op's deferred records were applied by the flush (a
    // sequential InsertSegment writes the element index before the
    // failure point too, so the states match) but belong to no applied
    // op — take them back out of the prefix-exact counters.
    stats.index_records -= rejected_records;
    if (flush_only_rejected) --stats.index_flushes;
  }
  // Registry mirror of the prefix-exact BatchStats (the struct stays the
  // public API; the registry aggregates across batches / databases).
  LAZYXML_METRIC_COUNTER(ops_counter, "batch.ops");
  LAZYXML_METRIC_COUNTER(applied_counter, "batch.applied");
  LAZYXML_METRIC_COUNTER(cancelled_counter, "batch.cancelled_pairs");
  LAZYXML_METRIC_COUNTER(flushes_counter, "batch.index_flushes");
  LAZYXML_METRIC_COUNTER(records_counter, "batch.index_records");
  LAZYXML_METRIC_COUNTER(failures_counter, "batch.failures");
  ops_counter.Add(stats.ops);
  applied_counter.Add(stats.applied);
  cancelled_counter.Add(stats.cancelled_pairs);
  flushes_counter.Add(stats.index_flushes);
  records_counter.Add(stats.index_records);
  if (!op_status.ok()) {
    failures_counter.Increment();
    return op_status.WithContext(StringPrintf("applying batch step %zu", i));
  }
  LAZYXML_RETURN_NOT_OK(flush_status);
  LAZYXML_RETURN_NOT_OK(end_status);
  LAZYXML_RETURN_NOT_OK(ParanoidCheck(*this));
  return Status::OK();
}

Result<SegmentId> LazyDatabase::CollapseSubtree(SegmentId sid) {
  // Validation precedes the epoch bump so a rejected collapse does not
  // stale the path summary.
  SegmentNode* top = log_.NodeOf(sid);
  if (top == nullptr) {
    return Status::NotFound("segment does not exist");
  }
  if (top->sid == kRootSegmentId) {
    return Status::InvalidArgument("cannot collapse the dummy root");
  }
  ++mutation_epoch_;
  SummaryBeginMutation();
  const bool summary_was_tracking = summary_track_;
  summary_track_ = false;
  const uint64_t base_gp = top->gp;

  // 1. Globalize every element of the subtree into the new segment's
  //    frozen coordinates (current global offsets relative to the top).
  std::vector<ElementRecord> records;
  std::vector<std::pair<SegmentId, std::vector<TagId>>> old_segments;
  std::vector<SegmentNode*> work{top};
  GlobalConverter conv;
  while (!work.empty()) {
    SegmentNode* n = work.back();
    work.pop_back();
    old_segments.emplace_back(n->sid, n->distinct_tags);
    for (TagId tid : n->distinct_tags) {
      const ElementScan run = index_.GetScan(tid, n->sid);
      for (const LocalElement& e : *run) {
        const GlobalElement g = conv.ToGlobal(*n, e);
        ElementRecord r;
        r.tid = tid;
        r.start = g.start - base_gp;
        r.end = g.end - base_gp;
        r.level = e.level;
        records.push_back(r);
      }
    }
    for (SegmentNode* c : n->children) work.push_back(c);
  }
  std::sort(records.begin(), records.end(),
            [](const ElementRecord& a, const ElementRecord& b) {
              return a.start < b.start;
            });

  // MVCC: the old segments' element lists die below — capture their
  // pre-images for any open pinned view before the index forgets them.
  if (mvcc_.HasOpenViews()) {
    for (const auto& [old_sid, tags] : old_segments) {
      for (TagId tid : tags) {
        mvcc_.CaptureScan(tid, old_sid, mutation_epoch_,
                          index_.GetScan(tid, old_sid));
      }
    }
  }

  // 2. Retire the old records and tag-list entries (resolver still knows
  //    the old segments at this point).
  for (const auto& [old_sid, tags] : old_segments) {
    LAZYXML_ASSIGN_OR_RETURN(RemovedCounts counts,
                             index_.DeleteSegment(old_sid, tags));
    for (const auto& [tid, count] : counts) {
      LAZYXML_RETURN_NOT_OK(
          log_.tag_list().RemoveOccurrences(tid, old_sid, count, log_));
    }
  }

  // 3. Structural collapse, then re-key everything into the new segment.
  LAZYXML_ASSIGN_OR_RETURN(UpdateLog::InsertInfo info,
                           log_.CollapseSubtree(sid));
  info.node->summary.reserve(records.size());
  std::map<TagId, uint64_t> counts;
  {
    std::vector<uint32_t> stack;
    for (uint32_t i = 0; i < records.size(); ++i) {
      const ElementRecord& r = records[i];
      while (!stack.empty() && records[stack.back()].end <= r.start) {
        stack.pop_back();
      }
      NestingEntry e;
      e.start = r.start;
      e.end = r.end;
      e.level = r.level;
      e.tid = r.tid;
      e.parent = stack.empty() ? kNoParentEntry : stack.back();
      info.node->summary.push_back(e);
      stack.push_back(i);
      ++counts[r.tid];
    }
  }
  LAZYXML_RETURN_NOT_OK(index_.InsertRecords(info.sid, records));
  for (const auto& [tid, count] : counts) {
    info.node->distinct_tags.push_back(tid);
    LAZYXML_RETURN_NOT_OK(
        log_.tag_list().AddEntry(tid, info.path, count, log_));
  }

  if (summary_was_tracking) {
    // A collapse moves elements between segments without changing any
    // root-to-tag path: retire the old segments' attributions wholesale,
    // then re-attribute everything through the new segment's nesting
    // summary (same paths, new sid in the seg_counts).
    LAZYXML_METRIC_HISTOGRAM(update_hist, "summary.update_us");
    obs::ScopedLatency update_latency(update_hist);
    for (const auto& [old_sid, tags] : old_segments) {
      summary_->RemoveSegmentAll(old_sid);
    }
    const uint32_t ctx = SummaryContextOf(*info.parent, info.frozen_point);
    if (SummaryAddSegment(*info.node, ctx, /*new_elements=*/false)) {
      summary_track_ = true;
    }
  }
  if (capture_ != nullptr) {
    LAZYXML_RETURN_NOT_OK(capture_->OnCollapseSubtree(sid, info.sid));
  }
  SummaryCommit();
  LAZYXML_RETURN_NOT_OK(ParanoidCheck(*this));
  return info.sid;
}

Status LazyDatabase::CompactAll() {
  // Snapshot the top-level sids first: collapsing mutates the child list.
  std::vector<SegmentId> tops;
  for (const SegmentNode* c : log_.root()->children) tops.push_back(c->sid);
  for (SegmentId sid : tops) {
    LAZYXML_RETURN_NOT_OK(CollapseSubtree(sid).status());
  }
  return Status::OK();
}

Status LazyDatabase::Freeze() {
  LAZYXML_RETURN_NOT_OK(FreezeLog());
  (void)EnsurePathSummary();
  return Status::OK();
}

Status LazyDatabase::FreezeLog() {
  const bool was_frozen = log_.frozen();  // always true in LD
  log_.Freeze();
  if (was_frozen || capture_ == nullptr) return Status::OK();
  return capture_->OnFreeze();
}

Status LazyDatabase::EnsurePathSummary() {
  if (!options_.query.use_path_summary) return Status::OK();
  if (summary_ != nullptr && summary_built_epoch_ == mutation_epoch_) {
    return Status::OK();
  }
  LAZYXML_METRIC_HISTOGRAM(build_hist, "summary.build_us");
  obs::ScopedLatency build_latency(build_hist);
  LAZYXML_ASSIGN_OR_RETURN(summary_, BuildPathSummary(log_, index_));
  summary_built_epoch_ = mutation_epoch_;
  LAZYXML_METRIC_GAUGE(nodes_gauge, "summary.nodes");
  LAZYXML_METRIC_GAUGE(bytes_gauge, "summary.bytes");
  nodes_gauge.Set(static_cast<double>(summary_->num_nodes()));
  bytes_gauge.Set(static_cast<double>(summary_->MemoryBytes()));
  return Status::OK();
}

Result<std::unique_ptr<PathSummary>> LazyDatabase::BuildPathSummary(
    const UpdateLog& log, const ElementIndex& index) {
  auto summary = std::make_unique<PathSummary>();
  summary->SetSegmentContext(kRootSegmentId, PathSummary::kRootNode);

  // Innermost own-element entry of `s` strictly containing frozen `f`
  // (index into s.summary), or kNoParentEntry. Same walk as
  // SegmentNode::LevelAt.
  const auto innermost = [](const SegmentNode& s, uint64_t f) -> uint32_t {
    auto it = std::lower_bound(
        s.summary.begin(), s.summary.end(), f,
        [](const NestingEntry& e, uint64_t t) { return e.start < t; });
    if (it == s.summary.begin()) return kNoParentEntry;
    uint32_t j = static_cast<uint32_t>(it - s.summary.begin()) - 1;
    while (j != kNoParentEntry) {
      if (s.summary[j].end > f) return j;
      j = s.summary[j].parent;
    }
    return kNoParentEntry;
  };

  // ctx is the node of the element containing the segment's splice
  // point, (ctx_sid, ctx_entry) that element (kNoParentEntry: the root).
  struct Frame {
    const SegmentNode* seg;
    uint32_t ctx;
    SegmentId ctx_sid;
    uint32_t ctx_entry;
  };
  std::vector<Frame> work{
      {log.root(), PathSummary::kRootNode, kRootSegmentId, kNoParentEntry}};
  std::vector<uint32_t> node_of;
  // Every live element's link to its parent element (ComputeStrongEdges).
  std::vector<EdgeLink> links;
  while (!work.empty()) {
    const auto [seg, ctx, ctx_sid, ctx_entry] = work.back();
    work.pop_back();
    summary->SetSegmentContext(seg->sid, ctx);

    // Summary node per nesting entry. Entries are in preorder, so every
    // parent is resolved before its children. Stale entries (pre-v4
    // snapshot restore) carry kNoEntryTag and map to kNoNode — harmless
    // unless a *live* record or splice point hangs off one, which the
    // checks below turn into a hard error.
    node_of.assign(seg->summary.size(), PathSummary::kNoNode);
    for (uint32_t i = 0; i < seg->summary.size(); ++i) {
      const NestingEntry& e = seg->summary[i];
      const uint32_t base =
          e.parent == kNoParentEntry ? ctx : node_of[e.parent];
      if (base == PathSummary::kNoNode || e.tid == kNoEntryTag) continue;
      node_of[i] = summary->Extend(base, e.tid);
    }

    for (TagId tid : seg->distinct_tags) {
      const ElementScan run = index.GetScan(tid, seg->sid);
      for (const LocalElement& el : *run) {
        auto it = std::lower_bound(
            seg->summary.begin(), seg->summary.end(), el.start,
            [](const NestingEntry& e, uint64_t t) { return e.start < t; });
        if (it == seg->summary.end() || it->start != el.start ||
            it->tid != tid) {
          return Status::Internal(
              "path summary build: element record without a matching "
              "nesting entry");
        }
        const uint32_t idx =
            static_cast<uint32_t>(it - seg->summary.begin());
        if (node_of[idx] == PathSummary::kNoNode) {
          return Status::Internal(
              "path summary build: live element on an unattributable "
              "nesting chain");
        }
        summary->AddElement(node_of[idx], seg->sid);
        const uint32_t parent = seg->summary[idx].parent;
        if (parent != kNoParentEntry) {
          links.push_back(EdgeLink{node_of[idx], seg->sid, parent});
        } else if (ctx_entry != kNoParentEntry) {
          links.push_back(EdgeLink{node_of[idx], ctx_sid, ctx_entry});
        }
      }
    }

    for (const SegmentNode* c : seg->children) {
      const uint32_t entry = innermost(*seg, c->lp);
      if (entry == kNoParentEntry) {
        work.push_back(Frame{c, ctx, ctx_sid, ctx_entry});
        continue;
      }
      if (node_of[entry] == PathSummary::kNoNode) {
        return Status::Internal(
            "path summary build: splice point inside an unattributable "
            "nesting chain");
      }
      work.push_back(Frame{c, node_of[entry], seg->sid, entry});
    }
  }
  summary->ComputeStrongEdges(std::move(links));
  return summary;
}

uint32_t LazyDatabase::SummaryContextOf(const SegmentNode& parent,
                                        uint64_t lp) {
  uint32_t node = summary_->SegmentContext(parent.sid);
  if (node == PathSummary::kNoNode) return PathSummary::kNoNode;
  for (TagId tid : parent.AncestorTagsAt(lp)) {
    if (tid == kNoEntryTag) return PathSummary::kNoNode;
    node = summary_->Extend(node, tid);
  }
  return node;
}

bool LazyDatabase::SummaryAddSegment(const SegmentNode& seg, uint32_t ctx,
                                     bool new_elements) {
  if (ctx == PathSummary::kNoNode) return false;
  summary_->SetSegmentContext(seg.sid, ctx);
  std::vector<uint32_t> node_of(seg.summary.size(), PathSummary::kNoNode);
  for (uint32_t i = 0; i < seg.summary.size(); ++i) {
    const NestingEntry& e = seg.summary[i];
    const uint32_t base = e.parent == kNoParentEntry ? ctx : node_of[e.parent];
    // A freshly built nesting summary (insert / collapse) covers exactly
    // the live elements, every entry with a real tag — anything else
    // means the summary cannot be maintained.
    if (base == PathSummary::kNoNode || e.tid == kNoEntryTag) return false;
    node_of[i] = summary_->Extend(base, e.tid);
  }
  // Edge upkeep reads the pre-insert counts. A collapse re-attributes
  // elements that already existed: no edge changes.
  if (new_elements) summary_->NoteInsertedFragment(seg.summary, node_of, ctx);
  for (uint32_t i = 0; i < seg.summary.size(); ++i) {
    summary_->AddElement(node_of[i], seg.sid);
  }
  return true;
}

uint32_t LazyDatabase::SummaryNodeOfElement(const SegmentNode& seg,
                                            uint64_t start, uint32_t* entry) {
  const uint32_t ctx = summary_->SegmentContext(seg.sid);
  if (ctx == PathSummary::kNoNode) return PathSummary::kNoNode;
  auto it = std::lower_bound(
      seg.summary.begin(), seg.summary.end(), start,
      [](const NestingEntry& e, uint64_t t) { return e.start < t; });
  if (it == seg.summary.end() || it->start != start) {
    return PathSummary::kNoNode;
  }
  if (entry != nullptr) {
    *entry = static_cast<uint32_t>(it - seg.summary.begin());
  }
  // Tag chain outermost-first: entry start offsets are unique within a
  // segment, so the exact-start entry IS the element's entry, and live
  // entries only have live ancestors.
  std::vector<TagId> tags;
  for (uint32_t j = static_cast<uint32_t>(it - seg.summary.begin());
       j != kNoParentEntry; j = seg.summary[j].parent) {
    if (seg.summary[j].tid == kNoEntryTag) return PathSummary::kNoNode;
    tags.push_back(seg.summary[j].tid);
  }
  uint32_t node = ctx;
  for (auto rit = tags.rbegin(); rit != tags.rend(); ++rit) {
    node = summary_->Extend(node, *rit);
  }
  return node;
}

Result<LazyJoinResult> LazyDatabase::JoinByName(
    std::string_view ancestor_tag, std::string_view descendant_tag,
    const LazyJoinOptions& options) {
  LAZYXML_RETURN_NOT_OK(FreezeLog());  // no-op in LD / when already clean
  return LazyJoinByName(log_, index_, dict_, path_summary(), ancestor_tag,
                        descendant_tag, options, nullptr);
}

bool LazyDatabase::QueryNeedsExclusive() const {
  if (!log_.frozen() || !log_.tag_list().sorted()) return true;
  if (options_.query.use_path_summary &&
      (summary_ == nullptr || summary_built_epoch_ != mutation_epoch_)) {
    return true;
  }
  return false;
}

Result<std::unique_ptr<SnapshotReader>> LazyDatabase::OpenReadView() {
  // No-ops when the state is already serviceable (the shared-lock fast
  // path of ConcurrentLazyDatabase::OpenView relies on exactly that).
  LAZYXML_RETURN_NOT_OK(Freeze());
  if (!log_.frozen() || !log_.tag_list().sorted()) {
    return Status::Internal("cannot pin a view on an unserviceable log");
  }
  LAZYXML_METRIC_HISTOGRAM(pin_hist, "mvcc.pin_us");
  obs::ScopedLatency pin_latency(pin_hist);
  std::shared_ptr<const ReadSnapshot> snap = mvcc_.Pin(mutation_epoch_);
  if (snap == nullptr) {
    auto fresh = std::make_shared<ReadSnapshot>();
    fresh->epoch = mutation_epoch_;
    fresh->log = log_.Clone();
    fresh->dict = &dict_;
    if (const PathSummary* ps = path_summary()) {
      fresh->summary = std::make_unique<const PathSummary>(*ps);
    }
    snap = mvcc_.PinNew(std::move(fresh));
  }
  return std::make_unique<SnapshotReader>(&mvcc_, std::move(snap), &index_,
                                          options_.query.use_path_summary);
}

LazyDatabaseStats LazyDatabase::Stats() const {
  LazyDatabaseStats s;
  s.num_segments = log_.num_segments();
  s.num_elements = index_.size();
  s.num_tags = dict_.size();
  s.super_document_length = log_.super_document_length();
  s.sb_tree_bytes = log_.SbTreeMemoryBytes();
  s.tag_list_bytes = log_.TagListMemoryBytes();
  s.element_index_bytes = index_.MemoryBytes();
  return s;
}

Status LazyDatabase::CheckInvariants() const {
  // The heavy lifting lives in the consistency scrubber (src/check/);
  // this facade method keeps the historical Status-based contract by
  // collapsing the graded report into OK-or-Corruption.
  auto report = check::CheckDatabase(*this);
  LAZYXML_RETURN_NOT_OK(report.status());
  return report.ValueOrDie().ToStatus();
}

}  // namespace lazyxml
