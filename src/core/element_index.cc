#include "core/element_index.h"

#include <algorithm>
#include <iterator>

namespace lazyxml {

namespace {

// The run GetScan returns for an absent key: shared, so a miss allocates
// nothing either.
const ElementScan& EmptyRun() {
  static const ElementScan* const empty =
      new ElementScan(std::make_shared<const std::vector<LocalElement>>());
  return *empty;
}

}  // namespace

Result<std::vector<ElementIndex::Run>> ElementIndex::MakeRuns(
    std::vector<ElementIndexRecord> records) {
  // Parser output is in preorder (ascending start) but interleaves tags;
  // one sort puts it in record order, and runs fall out as the maximal
  // stretches of equal (tid, sid).
  std::sort(records.begin(), records.end(),
            [](const ElementIndexRecord& a, const ElementIndexRecord& b) {
              return std::tie(a.tid, a.sid, a.start) <
                     std::tie(b.tid, b.sid, b.start);
            });
  std::vector<Run> runs;
  for (size_t i = 0; i < records.size();) {
    const Key key{records[i].tid, records[i].sid};
    size_t j = i + 1;
    while (j < records.size() && records[j].tid == key.tid &&
           records[j].sid == key.sid) {
      if (records[j].start == records[j - 1].start) {
        return Status::InvalidArgument("duplicate element record");
      }
      ++j;
    }
    auto run = std::make_shared<std::vector<LocalElement>>();
    run->reserve(j - i);
    for (; i < j; ++i) {
      run->push_back(
          LocalElement{records[i].start, records[i].end, records[i].level});
    }
    runs.emplace_back(key, std::move(run));
  }
  return runs;
}

Status ElementIndex::InsertRuns(std::vector<Run> runs) {
  for (const Run& r : runs) {
    if (tree_.Contains(r.first)) {
      return Status::AlreadyExists("element run already indexed");
    }
  }
  size_t added = 0;
  for (const Run& r : runs) added += r.second->size();
  LAZYXML_RETURN_NOT_OK(tree_.InsertSortedBatch(std::move(runs)));
  records_ += added;
  return Status::OK();
}

Status ElementIndex::InsertRecords(SegmentId sid,
                                   std::span<const ElementRecord> records) {
  if (records.empty()) return Status::OK();
  std::vector<ElementIndexRecord> all;
  all.reserve(records.size());
  for (const ElementRecord& r : records) {
    all.push_back(ElementIndexRecord{r.tid, sid, r.start, r.end, r.level});
  }
  LAZYXML_ASSIGN_OR_RETURN(std::vector<Run> runs, MakeRuns(std::move(all)));
  return InsertRuns(std::move(runs));
}

Status ElementIndex::InsertRecordsBatch(
    std::span<const ElementIndexRecord> records) {
  if (records.empty()) return Status::OK();
  LAZYXML_ASSIGN_OR_RETURN(
      std::vector<Run> runs,
      MakeRuns(std::vector<ElementIndexRecord>(records.begin(),
                                               records.end())));
  return InsertRuns(std::move(runs));
}

Status ElementIndex::BuildFrom(std::vector<ElementIndexRecord> records) {
  const size_t total = records.size();
  LAZYXML_ASSIGN_OR_RETURN(std::vector<Run> runs,
                           MakeRuns(std::move(records)));
  LAZYXML_RETURN_NOT_OK(tree_.BuildFrom(std::move(runs)));
  records_ = total;
  return Status::OK();
}

ElementScan ElementIndex::GetScan(TagId tid, SegmentId sid) const {
  const ElementScan* run = tree_.Find(Key{tid, sid});
  return run != nullptr ? *run : EmptyRun();
}

bool ElementIndex::FindInnermostContaining(SegmentId sid,
                                           std::span<const TagId> tags,
                                           uint64_t f,
                                           LocalElement* out) const {
  bool found = false;
  LocalElement best;
  for (TagId tid : tags) {
    const ElementScan* run = tree_.Find(Key{tid, sid});
    if (run == nullptr) continue;
    // The innermost container has the greatest start among elements with
    // start < f < end: bisect to the last start < f, then walk back to the
    // first element still open at f.
    const std::vector<LocalElement>& v = **run;
    auto it = std::lower_bound(
        v.begin(), v.end(), f,
        [](const LocalElement& e, uint64_t t) { return e.start < t; });
    while (it != v.begin()) {
      --it;
      if (found && it->start <= best.start) break;
      if (it->end > f) {
        best = *it;
        found = true;
        break;
      }
    }
  }
  if (found && out != nullptr) *out = best;
  return found;
}

Result<RemovedCounts> ElementIndex::DeleteSegment(SegmentId sid,
                                                  std::span<const TagId> tags) {
  RemovedCounts counts;
  for (TagId tid : tags) {
    const ElementScan* run = tree_.Find(Key{tid, sid});
    if (run == nullptr) continue;
    const size_t n = (*run)->size();
    LAZYXML_RETURN_NOT_OK(tree_.Erase(Key{tid, sid}));
    records_ -= n;
    counts[tid] = n;
  }
  return counts;
}

Result<RemovedCounts> ElementIndex::DeleteRange(SegmentId sid,
                                                std::span<const TagId> tags,
                                                uint64_t begin, uint64_t end) {
  // Two passes so a straddle anywhere aborts before anything is deleted.
  struct Doomed {
    TagId tid;
    size_t count;
  };
  std::vector<Doomed> doomed;
  const auto inside = [begin, end](const LocalElement& e) {
    return e.start >= begin && e.start < end && e.end > begin && e.end <= end;
  };
  for (TagId tid : tags) {
    const ElementScan* run = tree_.Find(Key{tid, sid});
    if (run == nullptr) continue;
    size_t count = 0;
    for (const LocalElement& e : **run) {
      const bool starts_inside = e.start >= begin && e.start < end;
      const bool ends_inside = e.end > begin && e.end <= end;
      if (starts_inside && ends_inside) {
        ++count;
      } else if (starts_inside != ends_inside &&
                 !(e.start < begin && e.end > end)) {
        return Status::Corruption("removal range splits an element record");
      }
    }
    if (count > 0) doomed.push_back(Doomed{tid, count});
  }
  RemovedCounts counts;
  for (const Doomed& d : doomed) {
    ElementScan* run = tree_.Find(Key{d.tid, sid});
    if ((*run)->size() == d.count) {
      LAZYXML_RETURN_NOT_OK(tree_.Erase(Key{d.tid, sid}));
    } else {
      // Copy-on-write: holders of the old run keep seeing it unchanged.
      auto shrunk = std::make_shared<std::vector<LocalElement>>();
      shrunk->reserve((*run)->size() - d.count);
      std::remove_copy_if((*run)->begin(), (*run)->end(),
                          std::back_inserter(*shrunk), inside);
      *run = std::move(shrunk);
    }
    records_ -= d.count;
    counts[d.tid] = d.count;
  }
  return counts;
}

size_t ElementIndex::MemoryBytes() const {
  size_t bytes = tree_.MemoryBytes();
  for (auto it = tree_.Begin(); it.Valid(); it.Next()) {
    bytes += sizeof(std::vector<LocalElement>) +
             it.value()->capacity() * sizeof(LocalElement);
  }
  return bytes;
}

Status ElementIndex::CheckInvariants() const {
  LAZYXML_RETURN_NOT_OK(tree_.CheckInvariants());
  size_t total = 0;
  for (auto it = tree_.Begin(); it.Valid(); it.Next()) {
    const ElementScan& run = it.value();
    LAZYXML_CHECK_OR_INTERNAL(run != nullptr && !run->empty(),
                              "empty element run");
    for (size_t i = 1; i < run->size(); ++i) {
      LAZYXML_CHECK_OR_INTERNAL((*run)[i - 1].start < (*run)[i].start,
                                "element run not strictly ascending");
    }
    total += run->size();
  }
  LAZYXML_CHECK_OR_INTERNAL(total == records_, "element record count");
  return Status::OK();
}

}  // namespace lazyxml
