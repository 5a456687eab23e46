// The server under test as a child process, plus the host probes the
// report prints next to every run.

#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace perfbench {

/// A running `lazyxml_server`. Stopped (SIGTERM, then SIGKILL after a
/// grace period) and reaped by Stop() or the destructor.
class ServerProcess {
 public:
  /// Starts `binary args...` with output appended to `log_path`, and
  /// waits until `socket_path` accepts a connection.
  static lazyxml::Result<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& socket_path, const std::string& log_path,
      int ready_timeout_ms);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Peak resident set (VmHWM) in MiB; 0 if /proc cannot be read.
  double PeakRssMb() const;

  /// Stops and reaps the process. OK when it exited with status 0.
  lazyxml::Status Stop();

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}
  pid_t pid_;
};

/// Rate of a fixed CPU-bound loop on 1 thread and on every hardware
/// thread at once: context for scaling numbers, not a metric.
struct CoreProbe {
  unsigned threads = 1;
  double one_thread_mops = 0;
  double all_threads_mops = 0;
};
CoreProbe ProbeCores();

/// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
