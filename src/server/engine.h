// ServerEngine: the one database handle the server's command executor
// talks to, uniform over the two deployment shapes:
//
//   in-memory   wraps ConcurrentLazyDatabase directly — its
//               writer-priority TicketSharedMutex discipline is exactly
//               what concurrent sessions need;
//   durable     wraps DurableLazyDatabase (which is deliberately not
//               thread-safe; storage/durable_database.h) and applies the
//               *same* locking discipline here: updates and maintenance
//               exclusive; queries shared unless
//               LazyDatabase::QueryNeedsExclusive() reports pending work
//               (an LS freeze to journal, a stale path summary), which
//               they do first under the exclusive lock.
//
// Command execution (server/command.cc) calls only this class, so the
// wire/command layers never care which shape is behind them.

#ifndef LAZYXML_SERVER_ENGINE_H_
#define LAZYXML_SERVER_ENGINE_H_

#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <string_view>

#include "check/checker.h"
#include "common/result.h"
#include "common/ticket_rwlock.h"
#include "core/concurrent_database.h"
#include "core/lazy_database.h"
#include "core/update_batch.h"
#include "obs/metrics.h"
#include "query/xpath.h"
#include "storage/durable_database.h"

namespace lazyxml {
namespace server {

struct ServerEngineOptions {
  /// In-memory database tuning (mode, tree options, query options).
  LazyDatabaseOptions db;
  /// Non-empty: open a DurableLazyDatabase on this directory instead of
  /// an in-memory ConcurrentLazyDatabase.
  std::string data_dir;
  /// Durable-mode knobs (wal sync policy etc.); `durable.db` is
  /// overwritten by `db` so the two shapes share one tuning block.
  DurableOptions durable;
  /// In-memory shape only: split each BATCH into chunks of at most this
  /// many ops with the write lock dropped between chunks, so queries and
  /// open read views are admitted mid-batch instead of stalling behind a
  /// bulk load (docs/MVCC.md). 0 = apply each batch whole. Ignored in
  /// durable mode, where the WAL batch record is deliberately atomic.
  size_t batch_chunk_ops = 0;
};

class ServerEngine {
 public:
  /// Builds the in-memory engine or opens the durable directory.
  static Result<std::unique_ptr<ServerEngine>> Open(ServerEngineOptions options);

  ServerEngine(const ServerEngine&) = delete;
  ServerEngine& operator=(const ServerEngine&) = delete;

  bool durable() const { return dur_ != nullptr; }

  // -- Updates (exclusive) ----------------------------------------------------

  /// LOAD: insert at the current end of the super document, atomically
  /// with reading that end. `*gp_out` receives the position used.
  Result<SegmentId> Append(std::string_view text, uint64_t* gp_out);

  Result<SegmentId> Insert(std::string_view text, uint64_t gp);
  Status Remove(uint64_t gp, uint64_t length);
  Status ApplyBatch(std::span<const UpdateOp> ops, BatchStats* stats_out);
  Status Compact();
  Status Freeze();

  // -- Queries ----------------------------------------------------------------

  /// PATH, TWIG and XPATH: one evaluator, `syntax` picks the admitted
  /// subset and whether global offsets are computed (XPATH only). At most
  /// `max_rows` elements are listed; the count is exact.
  Result<XPathResult> Xpath(std::string_view expr,
                            QuerySyntax syntax = QuerySyntax::kXPath,
                            size_t max_rows = kAllRows);

  // -- Introspection ----------------------------------------------------------

  /// Full consistency scrub (in durable mode including the WAL/snapshot
  /// cross-check). Exclusive: scrubbing a moving store reports phantoms.
  Result<check::CheckReport> Check();

  LazyDatabaseStats Stats();
  obs::MetricsSnapshot Metrics() const {
    return obs::MetricsRegistry::Global().Snapshot();
  }

 private:
  explicit ServerEngine(std::unique_ptr<ConcurrentLazyDatabase> mem)
      : mem_(std::move(mem)) {}
  explicit ServerEngine(std::unique_ptr<DurableLazyDatabase> dur)
      : dur_(std::move(dur)) {}

  // Exactly one of the two is set.
  std::unique_ptr<ConcurrentLazyDatabase> mem_;
  std::unique_ptr<DurableLazyDatabase> dur_;
  /// Durable-mode lock (same discipline as ConcurrentLazyDatabase).
  TicketSharedMutex dur_mu_;
};

}  // namespace server
}  // namespace lazyxml

#endif  // LAZYXML_SERVER_ENGINE_H_
