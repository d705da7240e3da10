#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace vz {
namespace {

TEST(ThreadPoolTest, ReportsLaneCount) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  ThreadPool single(1);
  EXPECT_EQ(single.num_threads(), 1u);
  ThreadPool automatic(0);
  EXPECT_GE(automatic.num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<int> counts(kN, 0);
  std::vector<size_t> values(kN, 0);
  pool.ParallelFor(kN, [&](size_t i) {
    ++counts[i];
    values[i] = i * i;
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(counts[i], 1) << "index " << i;
    EXPECT_EQ(values[i], i * i);
  }
}

TEST(ThreadPoolTest, ParallelForResultOrderingIsDeterministic) {
  // The per-slot write pattern gives identical aggregates for any thread
  // count — the determinism contract the query layer relies on.
  constexpr size_t kN = 257;
  auto run = [](ThreadPool* pool) {
    std::vector<double> out(kN, 0.0);
    ParallelFor(pool, kN, [&](size_t i) { out[i] = 1.0 / (1.0 + i); });
    return out;
  };
  ThreadPool parallel(4);
  const std::vector<double> serial = run(nullptr);
  const std::vector<double> pooled = run(&parallel);
  EXPECT_EQ(serial, pooled);
}

TEST(ThreadPoolTest, SerialFallbackRunsInIndexOrder) {
  std::vector<size_t> order;
  ParallelFor(nullptr, 10, [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), size_t{0});
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(100,
                                [](size_t i) {
                                  if (i == 7) {
                                    throw std::runtime_error("task failed");
                                  }
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A parallel query task evaluating a parallel OMD nests ParallelFor on
  // the same pool; the caller-participates design must drain both levels
  // even when every worker is occupied.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, ZeroIterationsIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolCancelTest, PreCancelledTokenRunsNoIterations) {
  CancelToken token;
  token.Cancel();
  // Serial path.
  size_t serial_runs = 0;
  ParallelFor(nullptr, 100, [&](size_t) { ++serial_runs; }, &token);
  EXPECT_EQ(serial_runs, 0u);
  // Pooled path: the cursor check fires before any iteration is claimed.
  ThreadPool pool(4);
  std::atomic<size_t> pooled_runs{0};
  ParallelFor(&pool, 100, [&](size_t) { ++pooled_runs; }, &token);
  EXPECT_EQ(pooled_runs.load(), 0u);
}

TEST(ThreadPoolCancelTest, NullTokenIsLegacyBehaviour) {
  ThreadPool pool(4);
  std::atomic<size_t> runs{0};
  ParallelFor(&pool, 64, [&](size_t) { ++runs; }, nullptr);
  EXPECT_EQ(runs.load(), 64u);
}

TEST(ThreadPoolCancelTest, SerialLoopStopsAtTheCancellingIteration) {
  CancelToken token;
  std::vector<size_t> ran;
  ParallelFor(
      nullptr, 100,
      [&](size_t i) {
        ran.push_back(i);
        if (i == 6) token.Cancel();
      },
      &token);
  // Iteration 6 fires the token; the pre-iteration checkpoint stops 7..99.
  std::vector<size_t> expected = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(ran, expected);
}

TEST(ThreadPoolCancelTest, PooledLoopDrainsPromptlyAfterCancel) {
  // Workers check the token at the iteration cursor, so after a mid-loop
  // cancel at most the in-flight iterations (bounded by the lane count)
  // complete; the bulk of the range is never claimed.
  ThreadPool pool(4);
  constexpr size_t kN = 100'000;
  CancelToken token;
  std::atomic<size_t> runs{0};
  ParallelFor(
      &pool, kN,
      [&](size_t) {
        if (runs.fetch_add(1) == 10) token.Cancel();
      },
      &token);
  EXPECT_GE(runs.load(), 11u);
  EXPECT_LT(runs.load(), kN);  // drained long before the end of the range
}

TEST(ThreadPoolCancelTest, CancelledSlotsAreUntouched) {
  // The contract the query layer relies on: a drained loop leaves
  // unattempted slots exactly as initialized, so aggregation can tell
  // attempted from skipped work.
  ThreadPool pool(4);
  constexpr size_t kN = 10'000;
  CancelToken token;
  token.Cancel();
  std::vector<char> touched(kN, 0);
  ParallelFor(&pool, kN, [&](size_t i) { touched[i] = 1; }, &token);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(touched[i], 0) << "slot " << i;
}

}  // namespace
}  // namespace vz
