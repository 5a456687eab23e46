#include "common/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace lazyxml {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  threads_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> l(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
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
  {
    std::lock_guard<std::mutex> l(mu_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> l(mu_);
  idle_cv_.wait(l, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  LAZYXML_METRIC_COUNTER(tasks_counter, "thread_pool.tasks_run");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> l(mu_);
      work_cv_.wait(l, [this] { return stop_ || !queue_.empty(); });
      // Stopping workers still drain: exit only once the queue is empty.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    tasks_counter.Increment();
    task();
    std::lock_guard<std::mutex> l(mu_);
    if (--active_ == 0 && queue_.empty()) idle_cv_.notify_all();
  }
}

}  // namespace lazyxml
