#include "core/read_view.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lazyxml {

namespace {

void SetViewsOpenGauge(size_t open) {
  LAZYXML_METRIC_GAUGE(views_gauge, "mvcc.views_open");
  views_gauge.Set(static_cast<double>(open));
}

}  // namespace

std::shared_ptr<const ReadSnapshot> MvccState::Pin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(epoch);
  if (it == snapshots_.end()) return nullptr;
  ++open_[epoch];
  size_t open = 0;
  for (const auto& [e, n] : open_) open += n;
  SetViewsOpenGauge(open);
  return it->second;
}

std::shared_ptr<const ReadSnapshot> MvccState::PinNew(
    std::shared_ptr<const ReadSnapshot> snap) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = snapshots_.emplace(snap->epoch, snap);
  // A concurrent OpenReadView may have registered this epoch first; its
  // snapshot is canonical and the duplicate clone is dropped.
  ++open_[it->first];
  size_t open = 0;
  for (const auto& [e, n] : open_) open += n;
  SetViewsOpenGauge(open);
  return it->second;
}

void MvccState::Unpin(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(epoch);
  if (it == open_.end()) return;  // defensive: unmatched unpin
  if (--it->second == 0) open_.erase(it);
  if (open_.empty()) poisoned_ = false;
  ReclaimLocked();
  size_t open = 0;
  for (const auto& [e, n] : open_) open += n;
  SetViewsOpenGauge(open);
}

bool MvccState::HasOpenViews() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !open_.empty();
}

void MvccState::CaptureScan(TagId tid, SegmentId sid, uint64_t retire_epoch,
                            ElementScan pre_image) {
  std::lock_guard<std::mutex> lock(mu_);
  if (open_.empty()) return;
  auto& chain = versions_[{tid, sid}];
  // Capture-once per (key, epoch): the first capture of an epoch holds
  // the epoch-start state; a later touch of the same list within the
  // same epoch (one batch) must not overwrite it.
  if (!chain.empty() && chain.back().retire_epoch >= retire_epoch) return;
  chain.push_back(Version{retire_epoch, std::move(pre_image)});
  ++versions_retired_total_;
  LAZYXML_METRIC_COUNTER(retired_counter, "mvcc.versions_retired_total");
  retired_counter.Increment();
}

ElementScan MvccState::VersionedScanAt(TagId tid, SegmentId sid,
                                       uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = versions_.find({tid, sid});
  if (it == versions_.end()) return nullptr;
  // Smallest retire epoch > `epoch`: chains ascend by retire epoch.
  const auto& chain = it->second;
  auto vit = std::upper_bound(
      chain.begin(), chain.end(), epoch,
      [](uint64_t e, const Version& v) { return e < v.retire_epoch; });
  if (vit == chain.end()) return nullptr;
  return vit->scan;
}

void MvccState::Poison() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!open_.empty()) poisoned_ = true;
}

bool MvccState::poisoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_;
}

void MvccState::ReclaimLocked() {
  LAZYXML_METRIC_HISTOGRAM(reclaim_hist, "mvcc.reclaim_us");
  obs::ScopedLatency reclaim_latency(reclaim_hist);
  // A version with retire epoch R serves exactly the views pinned at
  // epochs < R, so it survives iff the oldest open epoch is < R.
  const uint64_t min_open =
      open_.empty() ? UINT64_MAX : open_.begin()->first;
  for (auto it = versions_.begin(); it != versions_.end();) {
    auto& chain = it->second;
    size_t drop = 0;
    while (drop < chain.size() && chain[drop].retire_epoch <= min_open) {
      ++drop;
    }
    if (drop > 0) {
      versions_reclaimed_total_ += drop;
      chain.erase(chain.begin(), chain.begin() + drop);
    }
    it = chain.empty() ? versions_.erase(it) : std::next(it);
  }
  for (auto it = snapshots_.begin(); it != snapshots_.end();) {
    it = open_.count(it->first) == 0 ? snapshots_.erase(it) : std::next(it);
  }
}

MvccStats MvccState::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MvccStats s;
  for (const auto& [epoch, n] : open_) s.views_open += n;
  s.epochs_pinned = snapshots_.size();
  for (const auto& [key, chain] : versions_) s.versions_live += chain.size();
  s.versions_retired_total = versions_retired_total_;
  s.versions_reclaimed_total = versions_reclaimed_total_;
  s.poisoned = poisoned_;
  return s;
}

Status MvccState::CheckInvariants() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t min_open =
      open_.empty() ? UINT64_MAX : open_.begin()->first;
  for (const auto& [key, chain] : versions_) {
    if (chain.empty()) {
      return Status::Internal("I-MVCC: empty version chain retained");
    }
    uint64_t prev = 0;
    for (const Version& v : chain) {
      if (v.scan == nullptr) {
        return Status::Internal("I-MVCC: null pre-image in version chain");
      }
      if (v.retire_epoch <= prev) {
        return Status::Internal(
            "I-MVCC: version chain not strictly ascending");
      }
      prev = v.retire_epoch;
      if (v.retire_epoch <= min_open) {
        return Status::Internal(
            "I-MVCC: retained version no open view can need");
      }
    }
  }
  for (const auto& [epoch, count] : open_) {
    if (count == 0) {
      return Status::Internal("I-MVCC: zero-count open epoch entry");
    }
  }
  for (const auto& [epoch, snap] : snapshots_) {
    if (open_.count(epoch) == 0) {
      return Status::Internal("I-MVCC: cached snapshot with no open view");
    }
    if (snap == nullptr || snap->log == nullptr || snap->dict == nullptr ||
        snap->epoch != epoch) {
      return Status::Internal("I-MVCC: inconsistent cached snapshot");
    }
  }
  return Status::OK();
}

SnapshotReader::~SnapshotReader() { mvcc_->Unpin(snap_->epoch); }

ElementScan SnapshotReader::GetScan(TagId tid, SegmentId sid) {
  ElementScan scan = ScanAt(tid, sid);
  // Untouched since the pinned epoch: the live index's run is still exact.
  if (scan == nullptr) scan = live_index_->GetScan(tid, sid);
  return scan;
}

Result<LazyJoinResult> SnapshotReader::JoinByName(
    std::string_view ancestor_tag, std::string_view descendant_tag,
    const LazyJoinOptions& options) {
  if (mvcc_->poisoned()) {
    return Status::Internal(
        "read view invalidated: the database was mutated out of band "
        "(mutable_* bypass) while this view was open");
  }
  return LazyJoinByName(*snap_->log, *live_index_, *snap_->dict,
                        path_summary(), ancestor_tag, descendant_tag, options,
                        this);
}

}  // namespace lazyxml
