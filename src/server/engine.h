// ServerEngine: the database the server's command executor talks to.
// It owns one ConcurrentLazyDatabase (core/concurrent_database.h) over
// the LazyDatabase of the chosen deployment shape:
//
//   in-memory   the wrapper owns its LazyDatabase;
//   durable     the engine owns a DurableLazyDatabase and the wrapper
//               locks its database(), whose update capture journals
//               every update and every LS freeze point from inside the
//               locked call (storage/durable_database.h).
//
// So both shapes follow one locking discipline: updates and maintenance
// exclusive, queries shared unless LazyDatabase::QueryNeedsExclusive()
// reports pending work (an LS freeze, a stale path summary), which the
// wrapper does first under the exclusive lock. Command execution
// (server/command.cc) calls the wrapper directly; only Open, Check and
// Checkpoint know which shape is behind it.

#ifndef LAZYXML_SERVER_ENGINE_H_
#define LAZYXML_SERVER_ENGINE_H_

#include <memory>
#include <string>

#include "check/checker.h"
#include "common/result.h"
#include "core/concurrent_database.h"
#include "core/lazy_database.h"
#include "storage/durable_database.h"

namespace lazyxml {
namespace server {

struct ServerEngineOptions {
  /// In-memory database tuning (mode, tree options, query options).
  LazyDatabaseOptions db;
  /// Non-empty: open a DurableLazyDatabase on this directory instead of
  /// a purely in-memory database.
  std::string data_dir;
  /// Durable-mode knobs (wal sync policy etc.); `durable.db` is
  /// overwritten by `db` so the two shapes share one tuning block.
  DurableOptions durable;
  /// Split each BATCH into chunks of at most this many ops with the write
  /// lock dropped between chunks, so queries and open read views are
  /// admitted mid-batch instead of stalling behind a bulk load
  /// (docs/MVCC.md). 0 = apply each batch whole. In durable mode each
  /// chunk is one WAL batch, and WAL batches are prefix-durable
  /// (docs/WAL_FORMAT.md), so a chunked batch keeps the same contract.
  size_t batch_chunk_ops = 0;
};

class ServerEngine {
 public:
  /// Builds the in-memory engine or opens the durable directory.
  static Result<std::unique_ptr<ServerEngine>> Open(ServerEngineOptions options);

  ServerEngine(const ServerEngine&) = delete;
  ServerEngine& operator=(const ServerEngine&) = delete;

  bool durable() const { return dur_ != nullptr; }

  /// The thread-safe database every command runs against.
  ConcurrentLazyDatabase& db() { return *db_; }

  /// Full consistency scrub (in durable mode including the WAL/snapshot
  /// cross-check). Exclusive: scrubbing a moving store reports phantoms.
  Result<check::CheckReport> Check();

  /// Durable shape: DurableLazyDatabase::Checkpoint under the exclusive
  /// lock — a snapshot of the current state, and the WAL segments it
  /// covers removed, so a restart replays nothing written before it.
  /// NotSupported on an in-memory engine.
  Status Checkpoint();

 private:
  ServerEngine() = default;

  // Declared first so it is destroyed last: db_ locks its database().
  std::unique_ptr<DurableLazyDatabase> dur_;
  std::unique_ptr<ConcurrentLazyDatabase> db_;
};

}  // namespace server
}  // namespace lazyxml

#endif  // LAZYXML_SERVER_ENGINE_H_
