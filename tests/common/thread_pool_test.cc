#include "common/thread_pool.h"

#include <atomic>
#include <cstddef>
#include <future>
#include <mutex>
#include <vector>

#include <gtest/gtest.h>

namespace lazyxml {
namespace {

TEST(ThreadPoolTest, ClampsToAtLeastOneThread) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
}

TEST(ThreadPoolTest, DefaultThreadCountIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, DestructorDrainsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool drains
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPoolTest, RepeatedWavesStaySound) {
  ThreadPool pool(4);
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::atomic<int>> hits(64);
    for (size_t i = 0; i < hits.size(); ++i) {
      pool.Submit([&hits, i] {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
    }
    pool.WaitIdle();
    for (size_t i = 0; i < hits.size(); ++i) ASSERT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPoolTest, WaitIdleObservesEverySubmittedTask) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.WaitIdle();
    // Every task of this round finished — not merely been claimed —
    // before WaitIdle returned.
    ASSERT_EQ(ran.load(), (round + 1) * 32);
  }
}

TEST(ThreadPoolTest, WaitIdleOnIdlePoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.WaitIdle();
  pool.WaitIdle();
}

TEST(ThreadPoolTest, WaitIdleSeesTasksSubmittedByTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&pool, &ran] {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Tasks spawned by tasks keep pending_+active_ nonzero until the whole
  // tree has run; WaitIdle must not return at a transient zero between a
  // parent finishing and its child being counted.
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, SingleWorkerRunsTasksInSubmissionOrder) {
  ThreadPool pool(1);
  // Hold the only worker so every later task is queued before any runs.
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  pool.Submit([&started, gate] {
    started.set_value();
    gate.wait();
  });
  started.get_future().wait();
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&mu, &order, i] {
      std::lock_guard<std::mutex> l(mu);
      order.push_back(i);
    });
  }
  release.set_value();
  pool.WaitIdle();
  std::vector<int> want(16);
  for (int i = 0; i < 16; ++i) want[i] = i;
  EXPECT_EQ(order, want);
}

TEST(ThreadPoolTest, SubmitFromWithinTask) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&pool, &ran] {
        pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }
  EXPECT_EQ(ran.load(), 20);
}

}  // namespace
}  // namespace lazyxml
