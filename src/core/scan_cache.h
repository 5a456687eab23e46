// ElementScanCache: a sharded, read-mostly LRU cache of element scans.
//
// Lazy-Join and the materialization paths repeatedly read the same
// (tag, segment) element lists out of the element-index B+-tree — within
// one query (an A-scan is fetched for the in-segment join and again for
// the stack push; a self-join fetches the same list under both roles) and
// across queries (twig evaluation issues one Lazy-Join per branch over
// overlapping tags). This cache memoizes whole scans as immutable
// shared_ptr vectors so concurrent queries share them without copying.
//
// Keying and invalidation: entries are keyed by (tag, sid,
// mutation epoch). Every mutating facade operation bumps the database's
// epoch, so entries recorded under an older epoch can never be returned
// again — invalidation is O(1) and needs no enumeration of affected
// tags. Stale entries age out of the LRU ring; writers that want the
// memory back immediately (ConcurrentLazyDatabase does, on write-lock
// acquisition) call Invalidate() to purge eagerly.
//
// Concurrency: the cache is sharded by key hash; each shard has its own
// mutex, LRU list and byte budget, so concurrent readers on different
// shards never contend. Returned scans are shared_ptr<const ...>:
// eviction while a reader still holds the scan is safe.
//
// Scan-thrash resistance: a cyclic scan over a working set larger than
// the budget is LRU's worst case — every fill evicts, no fill is ever
// re-hit, and the churn makes the cache slower than no cache. Once a
// shard is at budget, Put therefore admits only one candidate in
// kAdmissionSample: residents survive long enough to be re-hit on the
// next pass and the churn cost drops by the sampling factor.

#ifndef LAZYXML_CORE_SCAN_CACHE_H_
#define LAZYXML_CORE_SCAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/compact_index.h"
#include "core/element_index.h"
#include "core/segment.h"
#include "xml/tag_dict.h"

namespace lazyxml {

/// Pinned-epoch override source for element scans (docs/MVCC.md). A join
/// running against a historical read view consults one of these before
/// the live element index: a (tag, segment) list that has been mutated
/// *after* the view's epoch is served from the retired pre-image the
/// writer captured, while untouched lists — element-index records are
/// write-once per segment and delete-only afterwards — fall through to
/// the live index, which still holds exactly their pinned-epoch state.
class ScanVersionSource {
 public:
  virtual ~ScanVersionSource() = default;
  /// The raw (tid, sid) scan as of the pinned epoch, or nullptr when the
  /// live element index is still exact for that epoch.
  virtual ElementScan ScanAt(TagId tid, SegmentId sid) const = 0;
};

/// Cache configuration.
struct ElementScanCacheOptions {
  /// Total byte budget across all shards (approximate; per-shard budgets
  /// are capacity_bytes / shards).
  size_t capacity_bytes = 8u << 20;
  /// Number of independent shards (rounded up to a power of two, >= 1).
  size_t shards = 8;
};

/// Point-in-time counters (monotonic except bytes/entries).
struct ElementScanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;     ///< LRU byte-budget evictions
  uint64_t invalidations = 0; ///< entries purged by Invalidate()
  uint64_t admission_rejects = 0; ///< fills skipped under eviction pressure
  size_t bytes_used = 0;
  size_t entries = 0;
};

/// What a cached scan holds; part of the cache key.
enum class ScanKind : uint32_t {
  kRaw = 0,       ///< the element-index list as stored
  kStraddle = 1,  ///< Fig. 9 push filter applied (child-splice straddlers)
};

/// The sharded scan cache.
class ElementScanCache {
 public:
  /// Under eviction pressure, 1 out of this many fill candidates is
  /// admitted (see Put).
  static constexpr uint64_t kAdmissionSample = 8;

  explicit ElementScanCache(ElementScanCacheOptions options = {});
  ElementScanCache(const ElementScanCache&) = delete;
  ElementScanCache& operator=(const ElementScanCache&) = delete;

  /// The scan cached for (tid, sid) at `epoch`, or nullptr. Thread-safe.
  ElementScan Get(TagId tid, SegmentId sid, uint64_t epoch,
                  ScanKind kind = ScanKind::kRaw);

  /// Caches `scan` for (tid, sid) at `epoch`, evicting LRU entries past
  /// the shard budget. A scan larger than a whole shard budget is not
  /// cached at all, and once a shard is at budget only one candidate in
  /// kAdmissionSample is admitted (scan-thrash resistance). Thread-safe.
  void Put(TagId tid, SegmentId sid, uint64_t epoch, ElementScan scan,
           ScanKind kind = ScanKind::kRaw);

  /// The *compressed* scan cached for (tid, sid) at `epoch`, or nullptr.
  /// Compressed and decoded entries live under distinct keys, so a mixed
  /// workload (A/B flag flips) can never alias them. Thread-safe.
  CompactScanHandle GetCompact(TagId tid, SegmentId sid, uint64_t epoch,
                               ScanKind kind = ScanKind::kRaw);

  /// Caches a compressed scan. The entry is charged its *actual* stored
  /// bytes — encoded blocks + skip headers (CompactTagScan::MemoryBytes)
  /// — not count * sizeof(LocalElement), so a fixed cache_bytes budget
  /// holds more records by exactly the compression ratio. Same admission
  /// and eviction rules as Put. Thread-safe.
  void PutCompact(TagId tid, SegmentId sid, uint64_t epoch,
                  CompactScanHandle scan, ScanKind kind = ScanKind::kRaw);

  /// Drops every entry (all epochs). Readers holding scans are unaffected.
  void Invalidate();

  /// Aggregated counters over all shards. Safe to call concurrently with
  /// fills/evictions/invalidations: each shard is snapshotted under its
  /// mutex (and the counter cells are additionally relaxed atomics), so a
  /// reader can never observe a torn multi-word update — at worst it sees
  /// a shard-consistent point between operations.
  ElementScanCacheStats Stats() const;

  /// Number of shards (options().shards rounded up to a power of two).
  size_t num_shards() const { return shards_.size(); }

  /// Counters of each shard individually, in shard order. Skew across
  /// shards (one hot shard taking most hits/evictions) means the key
  /// hash is funneling contention onto one mutex — bench_parallel_join
  /// surfaces these per shard to make that visible.
  std::vector<ElementScanCacheStats> PerShardStats() const;

  const ElementScanCacheOptions& options() const { return options_; }

 private:
  struct Key {
    TagId tid = 0;
    SegmentId sid = 0;
    uint64_t epoch = 0;
    uint32_t kind = 0;
    bool operator==(const Key& o) const {
      return tid == o.tid && sid == o.sid && epoch == o.epoch &&
             kind == o.kind;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = k.sid * 0x9e3779b97f4a7c15ull;
      h ^= (static_cast<uint64_t>(k.tid) << 32) ^ k.epoch;
      h += static_cast<uint64_t>(k.kind) << 17;
      h *= 0xff51afd7ed558ccdull;
      return static_cast<size_t>(h ^ (h >> 33));
    }
  };
  struct Entry {
    Key key;
    ElementScan scan;            ///< decoded representation (or null)
    CompactScanHandle compact;   ///< compressed representation (or null)
    size_t bytes = 0;            ///< actual stored footprint of the above
  };

  /// Bit folded into Key::kind so compressed entries can never be
  /// returned to a decoded Get (and vice versa).
  static constexpr uint32_t kCompactKindBit = 0x100;
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recent
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map;
    size_t bytes = 0;
    // Counters are written under `mu` but stored as relaxed atomics so a
    // stats reader can never tear a cell even if a future caller reads
    // them without the lock (Stats()/PerShardStats() still lock, which
    // also keeps bytes/entries consistent with the counters).
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> insertions{0};
    std::atomic<uint64_t> evictions{0};
    std::atomic<uint64_t> invalidations{0};
    std::atomic<uint64_t> admission_rejects{0};
    uint64_t admission_tick = 0;
  };

  Shard& ShardFor(const Key& k) {
    return *shards_[KeyHash{}(k) & shard_mask_];
  }

  /// Shared fill path of Put/PutCompact: admission sampling, LRU insert,
  /// budget eviction. `entry.bytes` must already hold the entry's actual
  /// stored footprint.
  void PutEntry(Entry entry);

  ElementScanCacheOptions options_;
  size_t shard_mask_ = 0;
  size_t per_shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Approximate heap footprint of one cached scan (for budget accounting).
inline size_t ElementScanBytes(const std::vector<LocalElement>& scan) {
  return sizeof(std::vector<LocalElement>) +
         scan.capacity() * sizeof(LocalElement);
}

}  // namespace lazyxml

#endif  // LAZYXML_CORE_SCAN_CACHE_H_
