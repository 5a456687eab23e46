#include "server/engine.h"

#include <utility>

namespace lazyxml {
namespace server {

Result<std::unique_ptr<ServerEngine>> ServerEngine::Open(
    ServerEngineOptions options) {
  auto engine = std::unique_ptr<ServerEngine>(new ServerEngine());
  if (options.data_dir.empty()) {
    engine->db_ = std::make_unique<ConcurrentLazyDatabase>(options.db);
  } else {
    options.durable.db = options.db;
    LAZYXML_ASSIGN_OR_RETURN(
        engine->dur_,
        DurableLazyDatabase::Open(options.data_dir, options.durable));
    engine->db_ =
        std::make_unique<ConcurrentLazyDatabase>(&engine->dur_->database());
  }
  engine->db_->SetBatchChunkOps(options.batch_chunk_ops);
  return engine;
}

Result<check::CheckReport> ServerEngine::Check() {
  check::Checker checker;
  return db_->WithExclusive(
      [&](LazyDatabase& db) -> Result<check::CheckReport> {
        if (dur_ != nullptr) return checker.Check(*dur_);
        return checker.Check(db);
      });
}

Status ServerEngine::Checkpoint() {
  if (dur_ == nullptr) {
    return Status::NotSupported(
        "CHECKPOINT needs a durable server (--data-dir)");
  }
  return db_->WithExclusive([&](LazyDatabase&) { return dur_->Checkpoint(); });
}

}  // namespace server
}  // namespace lazyxml
