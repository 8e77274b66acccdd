#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/common/thread_pool.hpp"

namespace micronas {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeReturnsImmediately) {
  ThreadPool pool(2);
  bool touched = false;
  pool.parallel_for(0, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, SingleWorkerRunsInIndexOrder) {
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.parallel_for(16, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 16U);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 13) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool stays usable after a throwing batch.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  std::atomic<long long> sum{0};
  for (int batch = 0; batch < 20; ++batch) {
    pool.parallel_for(50, [&](std::size_t i) { sum += static_cast<long long>(i); });
  }
  EXPECT_EQ(sum.load(), 20LL * (49 * 50 / 2));
}

// Idle workers spin for at most kSpinWindow, then park on the condition
// variable; a dispatch after a longer gap must wake them and still run
// every index exactly once.
TEST(ThreadPool, WakesAfterIdleGapLongerThanSpinWindow) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(ThreadPool::kSpinWindow * 20);
    std::vector<std::atomic<int>> hits(97);
    pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "round " << round;
  }
}

// The caller spins for the last items before it parks; an item that
// throws on a worker while the caller spins must still surface in the
// caller, and back-to-back dispatches (workers still spinning) must see
// the pool intact.
TEST(ThreadPool, PropagatesExceptionsThroughSpinCompletion) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallel_for(8,
                                   [&](std::size_t i) {
                                     ++ran;
                                     if (i == 7) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 8) << "round " << round;
  }
}

// Destroying the pool right after a dispatch, while its workers are
// still in their spin window, must join them promptly (no hang).
TEST(ThreadPool, DestroysWhileWorkersSpin) {
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    {
      ThreadPool pool(4);
      pool.parallel_for(16, [&](std::size_t) { ++count; });
    }
    EXPECT_EQ(count.load(), 16);
  }
}

TEST(ThreadPool, ZeroPicksHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1);
}

}  // namespace
}  // namespace micronas
