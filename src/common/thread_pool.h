// ThreadPool: a reusable work-stealing thread pool for request execution.
//
// Each worker owns a deque; Submit distributes tasks round-robin, a
// worker pops its own deque LIFO (cache-warm) and steals FIFO from a
// victim when empty (oldest task first, the classic work-stealing
// discipline).
//
// The pool is deliberately small and dependency-free (std::thread only):
// parallelism in this codebase is between requests — the server runs
// each session's commands as pool tasks (server/server.h) — while every
// query runs serially on the task that carries it.

#ifndef LAZYXML_COMMON_THREAD_POOL_H_
#define LAZYXML_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lazyxml {

/// A fixed-size work-stealing thread pool.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queues: every task submitted before destruction is run
  /// before the workers exit.
  ~ThreadPool();

  /// Number of worker threads (>= 1).
  size_t num_threads() const { return workers_.size(); }

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
  struct Worker {
    std::mutex mu;
    std::deque<std::function<void()>> deque;
  };

  void WorkerLoop(size_t self);
  /// Pops from own deque (back) or steals from a victim (front).
  bool TryRunOneTask(size_t self);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::condition_variable idle_cv_;
  std::atomic<size_t> next_queue_{0};
  std::atomic<uint64_t> pending_{0};
  /// Claimed tasks currently executing. Incremented BEFORE the matching
  /// pending_ decrement so pending_ + active_ never transiently reads 0
  /// while a task is live (WaitIdle's predicate depends on that).
  std::atomic<uint64_t> active_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace lazyxml

#endif  // LAZYXML_COMMON_THREAD_POOL_H_
