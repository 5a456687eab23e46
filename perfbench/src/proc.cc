#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/socket.h"

namespace perfbench {

using lazyxml::Status;

lazyxml::Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& socket_path, const std::string& log_path,
    int ready_timeout_ms) {
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) return Status::IOError("cannot open " + log_path);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return Status::IOError("fork failed");
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the driver
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(ready_timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      proc->pid_ = -1;
      return Status::Unavailable("server exited during start-up; see " +
                                 log_path);
    }
    if (lazyxml::ConnectUnixTimed(socket_path, 100).ok()) return proc;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Status::DeadlineExceeded("server did not start listening");
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  if (pid_ <= 0) return 0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  const pid_t pid = pid_;
  pid_ = -1;
  ::kill(pid, SIGTERM);
  int status = 0;
  for (int i = 0; i < 1000; ++i) {  // up to 10 s to drain
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      return WIFEXITED(status) && WEXITSTATUS(status) == 0
                 ? Status::OK()
                 : Status::Internal("server exited abnormally");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, &status, 0);
  return Status::Internal("server ignored SIGTERM");
}

namespace {

/// A fixed amount of dependent integer work; returns a value the
/// compiler cannot discard.
uint64_t SpinWork(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x *= 0x9e3779b97f4a7c15ULL;
  }
  return x;
}

// Results land here so the work cannot be optimized away.
std::atomic<uint64_t> g_spin_sink{0};

double RunSpin(unsigned threads, uint64_t iterations) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([t, iterations] {
      g_spin_sink.fetch_add(SpinWork(iterations, t + 1),
                            std::memory_order_relaxed);
    });
  }
  for (std::thread& th : pool) th.join();
  const double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return static_cast<double>(threads) * static_cast<double>(iterations) /
         s / 1e6;
}

}  // namespace

CoreProbe ProbeCores() {
  constexpr uint64_t kIterations = 40'000'000;
  CoreProbe p;
  p.threads = std::max(1u, std::thread::hardware_concurrency());
  p.one_thread_mops = RunSpin(1, kIterations);
  p.all_threads_mops = RunSpin(p.threads, kIterations);
  return p;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

}  // namespace perfbench
