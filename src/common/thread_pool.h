#ifndef VZ_COMMON_THREAD_POOL_H_
#define VZ_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/deadline.h"

namespace vz {

/// Fixed-size pool of worker threads shared by the parallel execution paths
/// (OMD ground-distance matrix fill, query candidate verification). It runs
/// nothing but `ParallelFor` work; connection loops have threads of their
/// own (see `net::RpcEndpoint`), so every worker stays free for queries.
///
/// The calling thread always participates in the iteration work, so nested
/// calls (a parallel query task evaluating a parallel OMD on the same pool)
/// cannot deadlock even when every worker is busy — the caller alone can
/// drain its own range.
class ThreadPool {
 public:
  /// A pool of `num_threads` execution lanes: the caller of `ParallelFor`
  /// plus `num_threads - 1` spawned workers. `num_threads == 0` means one
  /// lane per hardware thread; values are clamped to at least 1 (no workers,
  /// everything runs inline on the caller).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (spawned workers + the participating caller).
  size_t num_threads() const { return workers_.size() + 1; }

  /// Runs `fn(i)` for every `i` in `[0, n)` and blocks until all started
  /// iterations finished. Iterations are claimed dynamically by the caller
  /// and by helper tasks on the workers. The first exception thrown by `fn`
  /// is rethrown here and abandons the remaining iterations.
  ///
  /// Determinism is the caller's contract: have `fn` write only to slot `i`
  /// of a preallocated result array and aggregate in index order afterwards —
  /// then the outcome is identical to the serial loop regardless of thread
  /// count or schedule.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Cancellation-aware `ParallelFor`: `cancel` (may be null) is checked at
  /// the iteration cursor — once it fires, no further iteration is claimed by
  /// any lane, so all workers drain promptly; iterations already started run
  /// to completion. Slots whose iteration never ran are left untouched, which
  /// is how callers distinguish best-effort partial results. Under a
  /// simulated clock the token's state is constant for the whole call, so
  /// partial results stay bit-identical across thread counts.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   const CancelToken* cancel);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
};

/// Convenience wrapper used by all call sites: runs on `pool` when it offers
/// real parallelism, otherwise (including `pool == nullptr`) executes the
/// plain serial loop in index order — the exact legacy semantics that the
/// `num_threads = 1` configuration guarantees.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

/// Cancellation-aware wrapper: the serial fallback checks `cancel` before
/// every iteration (so a loop cancelled at iteration k executes exactly
/// `k + 1` iterations), the pooled path at the shared iteration cursor.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn,
                 const CancelToken* cancel);

}  // namespace vz

#endif  // VZ_COMMON_THREAD_POOL_H_
