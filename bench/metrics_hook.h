// Metrics export hook for the benchmark binaries: when the environment
// variable LAZYXML_METRICS_OUT names a path, the process-wide metrics
// registry is dumped there as JSON at exit. bench/run_all.sh sets the
// variable per binary and embeds each dump into BENCH_PR.json under
// "metrics", so every recorded benchmark run carries the registry view
// of what it actually did (WAL fsync latency histogram, batch counters,
// join and path-summary counters, ...) next to its timings.
//
// Included from bench_util.h so every figure binary gets the hook; the
// micro-bench binaries that skip bench_util.h include it directly.

#ifndef LAZYXML_BENCH_METRICS_HOOK_H_
#define LAZYXML_BENCH_METRICS_HOOK_H_

#include <cstdlib>
#include <fstream>

#include "obs/metrics.h"

namespace lazyxml {
namespace bench {
namespace internal {

/// Registers the atexit dump once per process (the inline variable below
/// has one instance program-wide no matter how many TUs include this).
struct MetricsDumpAtExit {
  MetricsDumpAtExit() {
    const char* path = std::getenv("LAZYXML_METRICS_OUT");
    if (path == nullptr || *path == '\0') return;
    static std::string out;  // atexit callbacks cannot capture
    out = path;
    std::atexit(+[] {
      std::ofstream f(out);
      if (f) f << obs::MetricsRegistry::Global().Snapshot().ExportJson()
               << "\n";
    });
  }
};

inline MetricsDumpAtExit metrics_dump_at_exit;

}  // namespace internal
}  // namespace bench
}  // namespace lazyxml

#endif  // LAZYXML_BENCH_METRICS_HOOK_H_
