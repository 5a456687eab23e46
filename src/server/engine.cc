#include "server/engine.h"

#include <mutex>
#include <utility>

namespace lazyxml {
namespace server {

Result<std::unique_ptr<ServerEngine>> ServerEngine::Open(
    ServerEngineOptions options) {
  if (options.data_dir.empty()) {
    auto mem = std::make_unique<ConcurrentLazyDatabase>(options.db);
    mem->SetBatchChunkOps(options.batch_chunk_ops);
    return std::unique_ptr<ServerEngine>(new ServerEngine(std::move(mem)));
  }
  options.durable.db = options.db;
  LAZYXML_ASSIGN_OR_RETURN(
      std::unique_ptr<DurableLazyDatabase> dur,
      DurableLazyDatabase::Open(options.data_dir, options.durable));
  return std::unique_ptr<ServerEngine>(new ServerEngine(std::move(dur)));
}

Result<SegmentId> ServerEngine::Append(std::string_view text,
                                       uint64_t* gp_out) {
  if (mem_ != nullptr) return mem_->AppendDocument(text, gp_out);
  std::unique_lock lock(dur_mu_);
  const uint64_t gp = dur_->database().update_log().super_document_length();
  auto r = dur_->InsertSegment(text, gp);
  if (r.ok() && gp_out != nullptr) *gp_out = gp;
  return r;
}

Result<SegmentId> ServerEngine::Insert(std::string_view text, uint64_t gp) {
  if (mem_ != nullptr) return mem_->InsertSegment(text, gp);
  std::unique_lock lock(dur_mu_);
  return dur_->InsertSegment(text, gp);
}

Status ServerEngine::Remove(uint64_t gp, uint64_t length) {
  if (mem_ != nullptr) return mem_->RemoveSegment(gp, length);
  std::unique_lock lock(dur_mu_);
  return dur_->RemoveSegment(gp, length);
}

Status ServerEngine::ApplyBatch(std::span<const UpdateOp> ops,
                                BatchStats* stats_out) {
  if (mem_ != nullptr) return mem_->ApplyBatch(ops, stats_out);
  std::unique_lock lock(dur_mu_);
  return dur_->ApplyBatch(ops, stats_out);
}

Status ServerEngine::Compact() {
  if (mem_ != nullptr) return mem_->CompactAll();
  std::unique_lock lock(dur_mu_);
  return dur_->CompactAll();
}

Status ServerEngine::Freeze() {
  if (mem_ != nullptr) {
    mem_->Freeze();
    return Status::OK();
  }
  std::unique_lock lock(dur_mu_);
  return dur_->Freeze();
}

Result<XPathResult> ServerEngine::Xpath(std::string_view expr,
                                        QuerySyntax syntax, size_t max_rows) {
  if (mem_ != nullptr) return mem_->Xpath(expr, syntax, max_rows);
  // The routing of ConcurrentLazyDatabase::ReadQuery: shared while no
  // pre-query work is pending, else exclusive to do it first — journal an
  // LS freeze point, then rebuild a stale path summary — so a query never
  // rebuilds anything under the shared lock.
  {
    std::shared_lock lock(dur_mu_);
    if (!dur_->database().QueryNeedsExclusive()) {
      return EvaluateQuery(&dur_->database(), syntax, expr, {}, max_rows);
    }
  }
  std::unique_lock lock(dur_mu_);
  LAZYXML_RETURN_NOT_OK(dur_->Freeze());
  dur_->database().Freeze();
  return EvaluateQuery(&dur_->database(), syntax, expr, {}, max_rows);
}

Result<check::CheckReport> ServerEngine::Check() {
  check::Checker checker;
  if (mem_ != nullptr) {
    return mem_->WithExclusive(
        [&checker](LazyDatabase& db) { return checker.Check(db); });
  }
  std::unique_lock lock(dur_mu_);
  return checker.Check(*dur_);
}

LazyDatabaseStats ServerEngine::Stats() {
  if (mem_ != nullptr) return mem_->Stats();
  std::shared_lock lock(dur_mu_);
  return dur_->database().Stats();
}

}  // namespace server
}  // namespace lazyxml
