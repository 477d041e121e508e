#include "nn/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace dcdiff::nn {
namespace {

TEST(ThreadPool, SingletonReportsAtLeastOneThread) {
  EXPECT_GE(ThreadPool::instance().num_threads(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](int64_t i) { ++hits[static_cast<size_t>(i)]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RangesArePartitioned) {
  const int64_t n = 257;  // awkward size
  std::vector<int> counts(static_cast<size_t>(n), 0);
  parallel_for_ranges(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) ++counts[static_cast<size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), n);
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPool, ZeroAndNegativeSizesAreNoOps) {
  bool called = false;
  parallel_for(0, [&](int64_t) { called = true; });
  parallel_for(-5, [&](int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElement) {
  int value = 0;
  parallel_for(1, [&](int64_t i) { value = static_cast<int>(i) + 42; });
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, SequentialCallsReuseWorkers) {
  // Exercises the generation counter: repeated dispatches must not deadlock
  // or double-run tasks.
  for (int round = 0; round < 50; ++round) {
    std::atomic<int64_t> sum{0};
    parallel_for(64, [&](int64_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 64 * 63 / 2);
  }
}

TEST(ThreadPool, DedicatedPoolDeterministicPartition) {
  ThreadPool pool(4);
  // Record which range handled each index; ranges must be contiguous chunks.
  std::vector<int64_t> begin_of(100, -1);
  pool.parallel_ranges(100, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      begin_of[static_cast<size_t>(i)] = begin;
    }
  });
  // Every index covered; chunk starts are non-decreasing.
  int64_t prev = 0;
  for (int64_t b : begin_of) {
    ASSERT_GE(b, 0);
    ASSERT_GE(b, prev - 100);  // sanity
    prev = std::max(prev, b);
  }
}

// Runs one dispatch of n indices on `pool` and checks each index was
// visited exactly once.
void expect_covered_once(ThreadPool& pool, int64_t n) {
  std::vector<std::atomic<int>> hits(static_cast<size_t>(n));
  pool.parallel_ranges(n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ThrowFromAnyRangeIsRethrownOnceAndPoolStillDispatches) {
  ThreadPool pool(2);
  obs::Counter& tasks = obs::counter("nn.threadpool.tasks");
  struct Case {
    bool caller_throws;
    bool worker_throws;
  };
  for (const Case cs :
       {Case{true, false}, Case{false, true}, Case{true, true}}) {
    std::atomic<int> ranges_done{0};
    int rethrown = 0;
    try {
      // Range [0, 1) runs on the caller, [1, 2) on the worker.
      pool.parallel_ranges(2, [&](int64_t begin, int64_t) {
        ranges_done.fetch_add(1);
        if (begin == 0 ? cs.caller_throws : cs.worker_throws) {
          throw std::runtime_error("range failed");
        }
      });
    } catch (const std::runtime_error&) {
      ++rethrown;
    }
    EXPECT_EQ(rethrown, 1);
    // Both ranges were done before the exception reached the caller.
    EXPECT_EQ(ranges_done.load(), 2);
    // The caller left the parallel region: its next loop dispatches to the
    // worker again instead of running inline.
    const uint64_t before = tasks.value();
    expect_covered_once(pool, 64);
    EXPECT_GT(tasks.value(), before);
  }
}

// ---------- spin-then-park hand-off ----------

TEST(ThreadPoolHandOff, BurstsSeparatedByParkingCoverEveryIndexOnce) {
  ThreadPool pool(3);
  // Gaps below, near and above the 100 us spin budget: workers are caught
  // spinning, in the middle of parking, and parked (woken by notify).
  const std::chrono::microseconds gaps[] = {
      std::chrono::microseconds(0), std::chrono::microseconds(90),
      std::chrono::microseconds(150), std::chrono::microseconds(2000)};
  for (int burst = 0; burst < 24; ++burst) {
    for (int d = 0; d < 40; ++d) expect_covered_once(pool, 97);
    std::this_thread::sleep_for(gaps[burst % 4]);
  }
}

TEST(ThreadPoolHandOff, ConcurrentDispatcherTakesTheInlinePath) {
  ThreadPool pool(2);
  obs::Counter& contended = obs::counter("nn.threadpool.dispatch_contended");
  const uint64_t before = contended.value();
  std::atomic<bool> holding{false};
  std::atomic<bool> second_done{false};
  std::vector<std::atomic<int>> hits(64);
  // The first dispatcher keeps its dispatch open until the second one has
  // finished, so the second must find the pool busy and run inline.
  std::thread first([&] {
    pool.parallel_ranges(2, [&](int64_t begin, int64_t) {
      if (begin != 0) return;
      holding.store(true);
      while (!second_done.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();
  std::thread second([&] {
    pool.parallel_ranges(64, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
      }
    });
    second_done.store(true);
  });
  second.join();
  first.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GT(contended.value(), before);
}

TEST(ThreadPoolHandOff, TwoThreadsDispatchingToOnePoolStayCorrect) {
  ThreadPool pool(3);
  auto hammer = [&] {
    for (int d = 0; d < 300; ++d) expect_covered_once(pool, 31 + d % 50);
  };
  std::thread a(hammer);
  std::thread b(hammer);
  a.join();
  b.join();
}

TEST(ThreadPoolHandOff, PoolDestroyedWhileWorkersSpinOrPark) {
  for (int round = 0; round < 100; ++round) {
    // Destroyed right after a dispatch: the worker is still spinning.
    ThreadPool pool(2);
    expect_covered_once(pool, 8);
  }
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);  // never dispatched: destroyed mid-spin at startup
  }
  for (int round = 0; round < 5; ++round) {
    // Destroyed after the workers parked.
    ThreadPool pool(2);
    expect_covered_once(pool, 8);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace
}  // namespace dcdiff::nn
