// UpdateCapture: observation hook for the logical update stream of a
// LazyDatabase. The durability layer (storage/durable_database.h)
// implements it to append one write-ahead-log record per successful
// primitive operation; anything else that wants the op stream
// (replication, change feeds) can implement it too.
//
// Contract: LazyDatabase invokes the hook *after* the in-memory apply
// succeeds, so captured operations are always valid and replaying them
// in order against an equal starting state reproduces the exact same
// database (same sids — they are assigned sequentially — and same frozen
// coordinates). A non-OK return propagates out of the mutating call;
// the in-memory state keeps the op (the caller decides whether a
// capture failure is fatal).
//
// Compound operations decompose into primitives: ApplyPlan captures one
// OnInsertSegment per step and CompactAll one OnCollapseSubtree per
// top-level segment, so a replayer only needs the three callbacks below
// plus OnFreeze.
//
// Freeze points are part of the stream. In LS mode (paper §5.1) the log
// is frozen just before a query, and the freeze shapes the frozen
// coordinates of every later insert, so a replay must freeze at the same
// point. LazyDatabase fires OnFreeze exactly when an LS log goes from
// unfrozen to frozen, whichever call froze it (Freeze, a join, a query
// evaluator, OpenReadView); a non-OK return surfaces as that call's
// error. LD logs never fire it.

#ifndef LAZYXML_CORE_UPDATE_CAPTURE_H_
#define LAZYXML_CORE_UPDATE_CAPTURE_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "core/segment.h"

namespace lazyxml {

class UpdateCapture {
 public:
  virtual ~UpdateCapture() = default;

  /// Segment `text` was inserted at global position `gp` and received id
  /// `sid`. Replay must observe the same sid (divergence check).
  virtual Status OnInsertSegment(SegmentId sid, std::string_view text,
                                 uint64_t gp) = 0;

  /// The region [gp, gp+length) was removed.
  virtual Status OnRemoveRange(uint64_t gp, uint64_t length) = 0;

  /// Subtree `old_sid` was collapsed into fresh segment `new_sid`.
  virtual Status OnCollapseSubtree(SegmentId old_sid, SegmentId new_sid) = 0;

  /// The LS log was just frozen (it was unfrozen before the call).
  virtual Status OnFreeze() { return Status::OK(); }

  /// ApplyBatch is starting a batch of `size` primitive operations. The
  /// per-op callbacks that follow — up to the matching OnBatchEnd — may
  /// be buffered and made durable together: the batch is prefix-durable,
  /// so a crash inside it loses a suffix of ops, never a middle one.
  virtual Status OnBatchBegin(size_t size) {
    (void)size;
    return Status::OK();
  }

  /// The batch is over (also called when the batch stopped early on an
  /// op error, covering the successfully applied prefix). Buffered
  /// records must be flushed before returning OK.
  virtual Status OnBatchEnd() { return Status::OK(); }
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_UPDATE_CAPTURE_H_
