// Unified observability: a process-wide metrics registry.
//
// The paper's headline claims are quantitative — update cost, I/Os, and
// structural-join time under lazy vs. eager maintenance (§5) — and the
// per-subsystem stats structs (LazyJoinStats, BatchStats, RecoveryStats)
// that measure them have no common export and already produced one
// counter bug (a double-counted elements_fetched). This registry is
// the single sink those structs now feed: named counters, gauges and
// log-bucketed latency histograms with stable text/JSON exports
// (docs/OBSERVABILITY.md).
//
// Cost model: every instrument is a handle resolved once by name
// (GetCounter et al. return a stable reference for the registry's
// lifetime) whose hot-path write is one relaxed load of the enabled flag
// plus one relaxed fetch_add on a cache-line-padded per-thread-shard
// cell — a few nanoseconds enabled-but-idle, one predictable branch when
// the registry is disabled. Reads (Snapshot) sum the shards; they are
// monotonic-correct but not an atomic cut across metrics, which is all a
// monitoring export needs.
//
// Naming scheme: dot-separated "<subsystem>.<metric>" with unit suffixes
// on histograms ("_us" = microseconds). See docs/OBSERVABILITY.md for
// the catalog.

#ifndef LAZYXML_OBS_METRICS_H_
#define LAZYXML_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace lazyxml {
namespace obs {

/// Number of per-thread shards per instrument (power of two). Eight
/// shards decorrelate the common few-writer case; a pathological 9th
/// thread shares a cell, which costs contention, never correctness.
inline constexpr size_t kMetricShards = 8;

/// Histogram buckets: bucket 0 holds the value 0; bucket i >= 1 holds
/// values in [2^(i-1), 2^i). 65 buckets cover the whole uint64 range.
inline constexpr size_t kHistogramBuckets = 65;

namespace internal {

/// Stable shard index for the calling thread (assigned round-robin on
/// first use, so the first kMetricShards threads never share a cell).
inline size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local const size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) & (kMetricShards - 1);
  return shard;
}

/// One cache-line-padded counter cell.
struct alignas(64) Cell {
  std::atomic<uint64_t> v{0};
};

/// Bucket index for `value` under the log2 layout above.
inline size_t BucketIndex(uint64_t value) {
  return value == 0 ? 0 : static_cast<size_t>(std::bit_width(value));
}

/// Inclusive-exclusive upper bound of bucket `i` (0 for bucket 0).
inline uint64_t BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= 64) return UINT64_MAX;
  return uint64_t{1} << i;
}

}  // namespace internal

/// A monotonically increasing counter.
class Counter {
 public:
  void Add(uint64_t n) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    cells_[internal::ThisThreadShard()].v.fetch_add(n,
                                                    std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  /// Sum over all shards. Monotonic; concurrent Adds may or may not be
  /// included.
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& c : cells_) total += c.v.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Counter(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void Reset() {
    for (auto& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::array<internal::Cell, kMetricShards> cells_;
};

/// A last-write-wins instantaneous value (double so ratios like
/// commits-per-fsync fit without fixed-point games).
class Gauge {
 public:
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    value_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  Gauge(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0};
};

/// Point-in-time histogram contents (see MetricsSnapshot).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper-bound estimate of the q-quantile (q in [0,1]): the upper
  /// boundary of the first bucket whose cumulative count reaches
  /// ceil(q * count). Exact to within one power-of-two bucket.
  uint64_t PercentileUpperBound(double q) const;
};

/// A log-bucketed distribution (latencies, sizes). Record() costs the
/// same few nanoseconds as Counter::Add (three relaxed fetch_adds on one
/// shard's cache lines).
class Histogram {
 public:
  void Record(uint64_t value) {
    if (!enabled_->load(std::memory_order_relaxed)) return;
    Shard& s = shards_[internal::ThisThreadShard()];
    s.buckets[internal::BucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    s.sum.fetch_add(value, std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot out;
    for (const Shard& s : shards_) {
      out.count += s.count.load(std::memory_order_relaxed);
      out.sum += s.sum.load(std::memory_order_relaxed);
      for (size_t b = 0; b < kHistogramBuckets; ++b) {
        out.buckets[b] += s.buckets[b].load(std::memory_order_relaxed);
      }
    }
    return out;
  }

  const std::string& name() const { return name_; }

 private:
  friend class MetricsRegistry;
  friend class ScopedLatency;
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };
  Histogram(std::string name, const std::atomic<bool>* enabled)
      : name_(std::move(name)), enabled_(enabled) {}
  void Reset() {
    for (Shard& s : shards_) {
      s.count.store(0, std::memory_order_relaxed);
      s.sum.store(0, std::memory_order_relaxed);
      for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
    }
  }

  std::string name_;
  const std::atomic<bool>* enabled_;
  std::array<Shard, kMetricShards> shards_;
};

/// A consistent-enough copy of every registered instrument. Exports:
///  * ExportText — one line per metric, sorted by name, zero-valued
///    metrics suppressed (the golden-test schema);
///  * ExportJson — {"counters":{},"gauges":{},"histograms":{}} with
///    zero buckets suppressed (the schema bench/run_all.sh embeds into
///    BENCH_PR.json).
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  std::string ExportText() const;
  std::string ExportJson() const;
};

/// The registry. One process-wide instance (Global()) serves every
/// subsystem; tests may build private instances.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed; safe during static
  /// teardown of other objects).
  static MetricsRegistry& Global();

  /// The instrument registered under `name`, created on first use. The
  /// returned reference is stable for the registry's lifetime, so hot
  /// paths resolve it once and keep the handle.
  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Runtime on/off switch. Disabled instruments drop writes (one
  /// relaxed load + branch); reads still see everything recorded while
  /// enabled. Enabled by default.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Zeroes every registered instrument (names stay registered). For
  /// tests and benchmark harnesses that want a per-run snapshot.
  void Reset();

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{true};
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// RAII latency sample: records elapsed wall-time microseconds into
/// `hist` on destruction. The clock is only read when the owning
/// registry is enabled at construction.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& hist)
      : hist_(hist.enabled_->load(std::memory_order_relaxed) ? &hist
                                                             : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedLatency() {
    if (hist_ == nullptr) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start_);
    hist_->Record(static_cast<uint64_t>(us.count()));
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace lazyxml

/// Resolves a registry instrument once per call site and caches the
/// handle in a function-local static (magic-static init is thread-safe;
/// steady-state cost is the guard check).
#define LAZYXML_METRIC_COUNTER(var, name)          \
  static ::lazyxml::obs::Counter& var =            \
      ::lazyxml::obs::MetricsRegistry::Global().GetCounter(name)
#define LAZYXML_METRIC_GAUGE(var, name)            \
  static ::lazyxml::obs::Gauge& var =              \
      ::lazyxml::obs::MetricsRegistry::Global().GetGauge(name)
#define LAZYXML_METRIC_HISTOGRAM(var, name)        \
  static ::lazyxml::obs::Histogram& var =          \
      ::lazyxml::obs::MetricsRegistry::Global().GetHistogram(name)

#endif  // LAZYXML_OBS_METRICS_H_
