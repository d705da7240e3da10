#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace vz {

namespace {

// Shared state of one ParallelFor call. Iterations are claimed through the
// atomic `next` cursor; a helper that only gets scheduled after the range is
// drained simply no-ops. The state (including the copied closure) is kept
// alive by shared_ptr until the last helper releases it, so late no-op
// helpers never touch freed caller memory.
struct ForState {
  ForState(size_t n, std::function<void(size_t)> fn, const CancelToken* cancel)
      : n(n), fn(std::move(fn)), cancel(cancel) {}

  // Claims and runs iterations until the range is drained, a sibling failed,
  // or the cancel token fired. Called by the ParallelFor caller and by every
  // helper. The cursor MUST be checked before the token: `cancel` may point
  // at the caller's stack, which is only guaranteed alive while undrained
  // work remains — a late helper that finds the range drained must no-op
  // without touching it. Once the token fires, the claiming lane parks the
  // cursor at `n`, so every other lane (including late helpers) stops at the
  // cursor check and the loop drains promptly.
  void Drain() {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      if (Cancelled(cancel)) {
        next.store(n, std::memory_order_relaxed);  // abandon the rest
        break;
      }
      try {
        fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);  // abandon the rest
        break;
      }
    }
  }

  const size_t n;
  const std::function<void(size_t)> fn;
  const CancelToken* const cancel;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  size_t active_helpers = 0;
  std::exception_ptr error;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads - 1);
  for (size_t i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& fn) {
  ParallelFor(n, fn, nullptr);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             const CancelToken* cancel) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) {
      if (Cancelled(cancel)) return;
      fn(i);
    }
    return;
  }
  auto state = std::make_shared<ForState>(n, fn, cancel);
  const size_t helpers = std::min(workers_.size(), n - 1);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([state] {
        {
          std::lock_guard<std::mutex> state_lock(state->mu);
          ++state->active_helpers;
        }
        state->Drain();
        {
          std::lock_guard<std::mutex> state_lock(state->mu);
          --state->active_helpers;
        }
        state->cv.notify_all();
      });
    }
  }
  cv_.notify_all();
  state->Drain();
  // The caller's own Drain() returned, so the cursor is past the end: any
  // helper that has claimed a real iteration incremented `active_helpers`
  // first, and any helper yet to start will find the range drained and
  // no-op. Waiting for active helpers is therefore sufficient.
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->active_helpers == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool->ParallelFor(n, fn);
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn,
                 const CancelToken* cancel) {
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (size_t i = 0; i < n; ++i) {
      if (Cancelled(cancel)) return;
      fn(i);
    }
    return;
  }
  pool->ParallelFor(n, fn, cancel);
}

}  // namespace vz
