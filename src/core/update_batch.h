// UpdateBatch: a value type describing a sequence of primitive updates
// for LazyDatabase::ApplyBatch. The batch is applied with EXACTLY the
// observable effect of calling InsertSegment/RemoveSegment one by one
// in order (same sids, same frozen coordinates, same serialized
// snapshot bytes, same error on the first failing op) while amortizing
// per-op costs: one mutation-epoch bump, one element-index flush per
// insert run, one WAL write + sync per batch, one writer lock per batch
// (docs/DESIGN.md "Batched ingestion", docs/INVARIANTS.md I-BATCH).

#ifndef LAZYXML_CORE_UPDATE_BATCH_H_
#define LAZYXML_CORE_UPDATE_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/segment.h"

namespace lazyxml {

/// One primitive update. Fields unused by the kind are zero / empty.
struct UpdateOp {
  enum class Kind : uint8_t { kInsert, kRemove };

  Kind kind = Kind::kInsert;
  std::string text;     ///< insert: segment text
  uint64_t gp = 0;      ///< insert / remove: global position
  uint64_t length = 0;  ///< remove: width of the removed region

  static UpdateOp Insert(std::string text, uint64_t gp) {
    UpdateOp op;
    op.kind = Kind::kInsert;
    op.text = std::move(text);
    op.gp = gp;
    return op;
  }
  static UpdateOp Remove(uint64_t gp, uint64_t length) {
    UpdateOp op;
    op.kind = Kind::kRemove;
    op.gp = gp;
    op.length = length;
    return op;
  }
};

/// Builder for a batch of ops; pass ops() to ApplyBatch.
class UpdateBatch {
 public:
  UpdateBatch& Insert(std::string text, uint64_t gp) {
    ops_.push_back(UpdateOp::Insert(std::move(text), gp));
    return *this;
  }
  UpdateBatch& Remove(uint64_t gp, uint64_t length) {
    ops_.push_back(UpdateOp::Remove(gp, length));
    return *this;
  }

  const std::vector<UpdateOp>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  void clear() { ops_.clear(); }

 private:
  std::vector<UpdateOp> ops_;
};

/// What ApplyBatch did, for observability and tests. When the batch
/// fails, the counters cover EXACTLY the applied prefix: the rejected
/// op contributes no applied count, no cancelled pair, no index-flush
/// or index-record counts, and its sids slot is 0 (even though the sid
/// itself is burned inside the database so that a retry of the suffix
/// assigns the same later sids as sequential application would).
/// `ops` alone is descriptive — always the full batch size.
struct BatchStats {
  size_t ops = 0;              ///< ops in the batch (even the unapplied ones)
  size_t applied = 0;          ///< ops fully applied (== ops on success)
  size_t cancelled_pairs = 0;  ///< insert-then-remove pairs short-circuited
  size_t index_flushes = 0;    ///< deferred element-index batch applies
  size_t index_records = 0;    ///< element records applied across flushes
  /// sids[i] is the sid assigned to op i if it was a fully-applied
  /// insert (including a cancelled one — its sid is burned to keep
  /// later sids identical to sequential application), 0 for removes
  /// and for a rejected final op.
  std::vector<SegmentId> sids;
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_UPDATE_BATCH_H_
