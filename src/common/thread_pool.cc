#include "common/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace lazyxml {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> l(wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

size_t ThreadPool::DefaultThreadCount() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 4 : hw;
}

ThreadPool* ThreadPool::Shared() {
  // Leaked on purpose: joining workers from a static destructor races
  // with other static teardown; the OS reclaims the threads at exit.
  static ThreadPool* const shared = new ThreadPool(DefaultThreadCount());
  return shared;
}

void ThreadPool::Submit(std::function<void()> fn) {
  const size_t i =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::lock_guard<std::mutex> l(workers_[i]->mu);
    workers_[i]->deque.push_back(std::move(fn));
  }
  {
    // Increment under wake_mu_: a worker that just evaluated the wait
    // predicate false is already blocked when we get the lock, so the
    // notify below cannot be lost between its check and its sleep.
    std::lock_guard<std::mutex> l(wake_mu_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::TryRunOneTask(size_t self) {
  LAZYXML_METRIC_COUNTER(tasks_counter, "thread_pool.tasks_run");
  LAZYXML_METRIC_COUNTER(steals_counter, "thread_pool.steals");
  std::function<void()> task;
  // Own deque first, newest task (LIFO keeps the working set warm).
  {
    Worker& w = *workers_[self];
    std::lock_guard<std::mutex> l(w.mu);
    if (!w.deque.empty()) {
      task = std::move(w.deque.back());
      w.deque.pop_back();
    }
  }
  // Steal a victim's *oldest* task (FIFO: big, early-submitted work moves
  // first, the standard stealing discipline).
  if (!task) {
    for (size_t k = 1; k < workers_.size() && !task; ++k) {
      Worker& v = *workers_[(self + k) % workers_.size()];
      std::lock_guard<std::mutex> l(v.mu);
      if (!v.deque.empty()) {
        task = std::move(v.deque.front());
        v.deque.pop_front();
        steals_counter.Increment();
      }
    }
  }
  if (!task) return false;
  tasks_counter.Increment();
  // pending_ counts *unclaimed* tasks (it only gates worker sleep);
  // decrementing before running avoids a shutdown busy-spin where idle
  // workers see pending > 0 for a task already running elsewhere. The
  // active_ increment comes first so WaitIdle never observes both zero
  // while this task is live.
  active_.fetch_add(1, std::memory_order_acq_rel);
  pending_.fetch_sub(1, std::memory_order_release);
  task();
  if (active_.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
      pending_.load(std::memory_order_acquire) == 0) {
    std::lock_guard<std::mutex> l(wake_mu_);
    idle_cv_.notify_all();
  }
  return true;
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> l(wake_mu_);
  idle_cv_.wait(l, [this] {
    return pending_.load(std::memory_order_acquire) == 0 &&
           active_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::WorkerLoop(size_t self) {
  for (;;) {
    if (TryRunOneTask(self)) continue;
    std::unique_lock<std::mutex> l(wake_mu_);
    wake_cv_.wait(l, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

}  // namespace lazyxml
