// ConcurrentLazyDatabase: a thread-safe facade over LazyDatabase.
//
// The paper names concurrency as future work (§6). This wrapper provides
// the sound baseline a deployment needs: a reader-writer lock where
// structural updates and maintenance are exclusive and queries run
// concurrently. Queries route by LazyDatabase::QueryNeedsExclusive():
// they share the lock whenever the state is already serviceable and take
// it exclusively only while deferred pre-query work is pending — an LS
// freeze or a stale path summary rebuild. In particular an LS database
// pays one exclusive freeze after a write burst and every later query
// runs shared (queries no longer serialize forever just because the
// *mode* is LS).
//
// Snapshot isolation (docs/MVCC.md): OpenView() pins the current state
// and returns a ReadView whose queries all observe exactly that state —
// even while later writers commit. Combined with SetBatchChunkOps, which
// splits large ApplyBatch calls into bounded chunks with the lock
// dropped between them, readers are admitted *during* a bulk load
// instead of stalling behind it.
//
// One discipline for both deployment shapes: the wrapper either owns its
// LazyDatabase (in memory) or locks one it does not own — the durable
// shape passes DurableLazyDatabase::database(), whose update capture
// journals every mutation, LS freeze points included, from inside the
// LazyDatabase call (core/update_capture.h). So the same critical
// sections cover the WAL appends, and a durable store gets OpenView and
// chunked batches with no second locking layer (server/engine.h).
//
// Liveness: the lock is a TicketSharedMutex (common/ticket_rwlock.h),
// a writer-priority ticket gate — a pending writer closes admission to
// new readers, so an unbounded stream of overlapping readers can no
// longer starve updates (std::shared_mutex gave no such guarantee and
// reader-preferring implementations starved writers in practice).

#ifndef LAZYXML_CORE_CONCURRENT_DATABASE_H_
#define LAZYXML_CORE_CONCURRENT_DATABASE_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string_view>
#include <utility>

#include "common/result.h"
#include "common/strings.h"
#include "common/ticket_rwlock.h"
#include "core/lazy_database.h"
#include "core/query_facade.h"
#include "core/read_view.h"

namespace lazyxml {

/// Thread-safe lazy XML database.
class ConcurrentLazyDatabase {
 public:
  /// Owns a fresh in-memory database.
  explicit ConcurrentLazyDatabase(LazyDatabaseOptions options = {})
      : owned_(std::make_unique<LazyDatabase>(options)), db_(*owned_) {}
  /// Locks `*db`, which it does not own; `*db` must outlive the wrapper
  /// and be reached only through it while other threads are live.
  explicit ConcurrentLazyDatabase(LazyDatabase* db) : db_(*db) {}
  ConcurrentLazyDatabase(const ConcurrentLazyDatabase&) = delete;
  ConcurrentLazyDatabase& operator=(const ConcurrentLazyDatabase&) = delete;

  // -- Updates (exclusive) ----------------------------------------------------

  Result<SegmentId> InsertSegment(std::string_view text, uint64_t gp) {
    std::unique_lock lock(mu_);
    return db_.InsertSegment(text, gp);
  }

  Status RemoveSegment(uint64_t gp, uint64_t length) {
    std::unique_lock lock(mu_);
    return db_.RemoveSegment(gp, length);
  }

  /// Applies the batch as one or more exclusive acquisitions. With
  /// chunking off (the default) the whole batch runs under ONE
  /// writer-priority acquisition — N singleton updates would pay the
  /// ticket gate N times. With SetBatchChunkOps(n > 0) the batch is
  /// split into chunks of at most n ops and the lock is dropped between
  /// chunks, so pending readers (including open ReadViews, which observe
  /// none of the chunks) are admitted mid-batch. Prefix semantics
  /// compose across chunks (I-BATCH): on a failure the applied prefix —
  /// full chunks plus the failing chunk's applied prefix — stays, and
  /// `*stats_out` covers exactly that prefix. Note a cancelling
  /// insert/remove pair split across a chunk boundary is applied
  /// structurally rather than short-circuited (same final state; the
  /// cancelled_pairs stat may differ from the unchunked run).
  Result<BatchStats> ApplyBatch(std::span<const UpdateOp> ops) {
    BatchStats stats;
    LAZYXML_RETURN_NOT_OK(ApplyBatch(ops, &stats));
    return stats;
  }

  /// Stats-out form: `*stats_out` covers exactly the applied prefix even
  /// when the batch fails (core/lazy_database.h).
  Status ApplyBatch(std::span<const UpdateOp> ops, BatchStats* stats_out) {
    const size_t chunk = batch_chunk_ops_.load(std::memory_order_relaxed);
    if (chunk == 0 || ops.size() <= chunk) {
      std::unique_lock lock(mu_);
      return db_.ApplyBatch(ops, stats_out);
    }
    BatchStats total;
    total.ops = ops.size();
    total.sids.assign(ops.size(), 0);
    Status status;
    for (size_t off = 0; off < ops.size() && status.ok(); off += chunk) {
      const size_t n = std::min(chunk, ops.size() - off);
      BatchStats cs;
      {
        std::unique_lock lock(mu_);
        status = db_.ApplyBatch(ops.subspan(off, n), &cs);
      }  // lock dropped: queued readers are admitted before the next chunk
      total.applied += cs.applied;
      total.cancelled_pairs += cs.cancelled_pairs;
      total.index_flushes += cs.index_flushes;
      total.index_records += cs.index_records;
      for (size_t i = 0; i < cs.sids.size(); ++i) {
        total.sids[off + i] = cs.sids[i];
      }
      if (!status.ok()) {
        status = status.WithContext(
            StringPrintf("applying batch chunk at offset %zu", off));
      }
    }
    if (stats_out != nullptr) *stats_out = total;
    return status;
  }

  /// Chunk size for ApplyBatch; 0 (the default) applies each batch whole
  /// under one acquisition. Takes effect on the next ApplyBatch call.
  void SetBatchChunkOps(size_t ops_per_chunk) {
    batch_chunk_ops_.store(ops_per_chunk, std::memory_order_relaxed);
  }
  size_t batch_chunk_ops() const {
    return batch_chunk_ops_.load(std::memory_order_relaxed);
  }

  Status CompactAll() {
    std::unique_lock lock(mu_);
    return db_.CompactAll();
  }

  /// Inserts `text` at the current end of the super document under ONE
  /// exclusive acquisition (the server's LOAD: append a whole document).
  /// Reading the length and inserting separately would race concurrent
  /// writers into a stale position. `*gp_out` (optional) receives the
  /// position used.
  Result<SegmentId> AppendDocument(std::string_view text,
                                   uint64_t* gp_out = nullptr) {
    std::unique_lock lock(mu_);
    const uint64_t gp = db_.update_log().super_document_length();
    auto r = db_.InsertSegment(text, gp);
    if (r.ok() && gp_out != nullptr) *gp_out = gp;
    return r;
  }

  /// Performs the deferred pre-query work eagerly (exclusive: LS freeze,
  /// summary build). No-op when nothing is pending, matching
  /// LazyDatabase::Freeze.
  Status Freeze() {
    std::unique_lock lock(mu_);
    return db_.Freeze();
  }

  // -- Queries (shared once serviceable; exclusive only to freeze) -----------

  /// Runs `fn(QueryFacade&)` against the live state and returns its
  /// Result or Status. Shared-lock fast path when no deferred pre-query work is
  /// pending; exclusive fallback performs it (Freeze, which journals an
  /// LS freeze point through the update capture) and runs the query
  /// while still holding the lock. A failed Freeze is the query's error.
  /// `fn` may only read: the query evaluator (EvaluateQuery,
  /// query/xpath.h) only CONSULTS the epoch-gated path summary (it never
  /// rebuilds one), so it may run on the shared path.
  template <typename Fn>
  auto Query(Fn&& fn) -> decltype(fn(std::declval<QueryFacade&>())) {
    QueryFacade& facade = db_;
    {
      std::shared_lock lock(mu_);
      if (!db_.QueryNeedsExclusive()) return fn(facade);
    }
    std::unique_lock lock(mu_);
    LAZYXML_RETURN_NOT_OK(db_.Freeze());
    return fn(facade);
  }

  Result<LazyJoinResult> JoinByName(std::string_view anc,
                                    std::string_view desc,
                                    const LazyJoinOptions& options = {}) {
    return Query(
        [&](QueryFacade& f) { return f.JoinByName(anc, desc, options); });
  }

  Result<std::vector<JoinPair>> JoinGlobal(std::string_view anc,
                                           std::string_view desc,
                                           const LazyJoinOptions& options = {}) {
    return Query(
        [&](QueryFacade& f) { return f.JoinGlobal(anc, desc, options); });
  }

  /// Pins the current state and returns a snapshot-isolated ReadView
  /// (docs/MVCC.md): every query through the view observes exactly the
  /// pinned state, even while later writers (including chunked batches)
  /// commit. Shared-lock fast path when the state is serviceable;
  /// exclusive only to perform the deferred freeze first.
  Result<ReadView> OpenView() {
    {
      std::shared_lock lock(mu_);
      if (!db_.QueryNeedsExclusive()) {
        LAZYXML_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotReader> reader,
                                 db_.OpenReadView());
        return ReadView(&mu_, std::move(reader));
      }
    }
    std::unique_lock lock(mu_);
    LAZYXML_ASSIGN_OR_RETURN(std::unique_ptr<SnapshotReader> reader,
                             db_.OpenReadView());
    return ReadView(&mu_, std::move(reader));
  }

  LazyDatabaseStats Stats() {
    std::shared_lock lock(mu_);
    return db_.Stats();
  }

  /// MVCC counters (open views, retained/retired versions); lock-free —
  /// MvccState is internally synchronized.
  MvccStats MvccStatsSnapshot() const { return db_.mvcc().Stats(); }

  Status CheckInvariants() {
    std::shared_lock lock(mu_);
    return db_.CheckInvariants();
  }

  /// Runs `fn(LazyDatabase&)` under the exclusive lock and returns its
  /// result — the safe form of the escape hatch below for callers that
  /// need direct access while other threads are live (the server's CHECK
  /// command runs the scrubber through this).
  template <typename Fn>
  auto WithExclusive(Fn&& fn) {
    std::unique_lock lock(mu_);
    return fn(db_);
  }

  /// Exclusive access escape hatch for bulk setup (single-threaded phases).
  LazyDatabase& UnsynchronizedAccess() { return db_; }

 private:
  TicketSharedMutex mu_;
  std::unique_ptr<LazyDatabase> owned_;  ///< null when not owned
  LazyDatabase& db_;
  std::atomic<size_t> batch_chunk_ops_{0};
};

}  // namespace lazyxml

#endif  // LAZYXML_CORE_CONCURRENT_DATABASE_H_
