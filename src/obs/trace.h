// Query trace spans: RAII scopes that record per-phase wall-clock
// timings into a bounded ring buffer.
//
// A span is cheap but not free (two steady_clock reads plus one
// mutex-protected ring push), so spans mark per-query *phases* — parse,
// join prepare, join rounds — never per-element work. Spans started on
// one thread nest via a thread-local (trace id, depth) pair: the first
// span on a thread opens a new trace, nested spans inherit its id with
// depth+1, so the dump reconstructs the phase tree per query.
//
// The ring is bounded (default 4096 spans) and overwrites the oldest
// entry, so tracing can stay on in production without unbounded memory;
// `dropped()` counts overwritten spans. `DumpJson()` emits the ring
// oldest-first. See docs/OBSERVABILITY.md for the span catalog.

#ifndef LAZYXML_OBS_TRACE_H_
#define LAZYXML_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace lazyxml {
namespace obs {

/// One completed span. `name` must point at a string literal (spans
/// store the pointer, not a copy).
struct SpanRecord {
  uint64_t trace_id = 0;   ///< Groups spans of one top-level scope.
  uint32_t depth = 0;      ///< 0 = top-level scope on its thread.
  const char* name = "";   ///< Static phase name, e.g. "join.rounds".
  uint64_t start_us = 0;   ///< Microseconds since process trace epoch.
  uint64_t duration_us = 0;
};

/// Fixed-capacity overwrite-oldest span sink.
class TraceRing {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceRing(size_t capacity = kDefaultCapacity);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// The process-wide ring every TraceSpan uses by default (never
  /// destroyed).
  static TraceRing& Global();

  /// Runtime switch; enabled by default. Disabled TraceSpans skip the
  /// clock reads entirely.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(const SpanRecord& span);

  /// The retained spans, oldest first.
  std::vector<SpanRecord> Snapshot() const;

  /// {"spans":[{"trace":..,"depth":..,"name":..,"start_us":..,
  ///   "dur_us":..},...],"dropped":N}
  std::string DumpJson() const;

  void Clear();

  /// Spans overwritten because the ring was full.
  uint64_t dropped() const;

  /// Fresh trace id for a new top-level span (starts at 1; 0 = none).
  uint64_t NextTraceId() {
    return next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Microseconds since the process trace epoch (first use anchors it).
  static uint64_t NowMicros();

 private:
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_trace_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  // capacity fixed at construction
  size_t next_ = 0;               // ring_[next_] is overwritten next
  size_t size_ = 0;               // live entries (<= capacity)
  uint64_t dropped_ = 0;
};

/// RAII phase scope. Construct at phase entry with a string-literal
/// name; the destructor records the span into the ring. When the ring is
/// disabled at construction the span is inert (no clock reads).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, TraceRing* ring = &TraceRing::Global());
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceRing* ring_;  // nullptr when inert
  const char* name_;
  uint64_t trace_id_ = 0;
  uint32_t depth_ = 0;
  uint64_t start_us_ = 0;
};

}  // namespace obs
}  // namespace lazyxml

#endif  // LAZYXML_OBS_TRACE_H_
