// ThreadPool: a fixed-size FIFO thread pool for request execution.
//
// One mutex guards one deque: Submit pushes to the back and every worker
// pops from the front, so tasks start in submission order. The server
// runs each session's commands as pool tasks (server/server.h), so a
// request that was submitted first also starts first.
//
// The pool is deliberately small and dependency-free (std::thread only):
// parallelism in this codebase is between requests, while every query
// runs serially on the task that carries it.

#ifndef LAZYXML_COMMON_THREAD_POOL_H_
#define LAZYXML_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lazyxml {

/// A fixed-size FIFO thread pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue: every task submitted before destruction is run
  /// before the workers exit.
  ~ThreadPool();

  /// Number of worker threads (>= 1).
  size_t num_threads() const { return threads_.size(); }

  /// Enqueues `fn` for asynchronous execution. Thread-safe.
  void Submit(std::function<void()> fn);

  /// Blocks until every task submitted so far has finished running (both
  /// queued and claimed-but-executing tasks). Tasks submitted by other
  /// threads *while* waiting extend the wait — this is a drain barrier
  /// for shutdown ordering (the server's Stop uses it on an owned pool),
  /// not a phase barrier. Must not be called from a pool worker.
  void WaitIdle();

  /// A good default worker count for this machine.
  static size_t DefaultThreadCount();

  /// The process-wide shared pool (DefaultThreadCount workers), created
  /// on first use and intentionally leaked — workers must not be join'd
  /// during static destruction. Every server configured with
  /// num_threads == 0 runs on this one pool, so a process with several
  /// servers runs DefaultThreadCount workers total, not per server.
  /// Never destroyed; safe to call concurrently.
  static ThreadPool* Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< queue non-empty or stopping
  std::condition_variable idle_cv_;  ///< queue empty and nothing running
  std::deque<std::function<void()>> queue_;
  /// Claimed tasks currently executing; with queue_ it is WaitIdle's
  /// predicate, both read under mu_.
  size_t active_ = 0;
  bool stop_ = false;
  /// Last: the workers use every member above.
  std::vector<std::thread> threads_;
};

}  // namespace lazyxml

#endif  // LAZYXML_COMMON_THREAD_POOL_H_
