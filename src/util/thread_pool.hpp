// Small fixed-size worker pool for fan-out/fan-in workloads.
//
// The fault-simulation campaigns (analysis/campaign_shard.hpp) cut a
// fault universe into fixed batches, run each batch as one task on a
// pool and merge the per-batch results in batch order, so parallel
// output is bit-identical to the serial path.  The pool is
// deliberately minimal: fixed worker count, one mutex-guarded FIFO
// task queue, submit() with a failure callback — so every task has a
// completion path, a lost one included — and one blocking fan-out,
// `parallel_for_batches`.  Determinism is the caller's merge
// discipline, not the schedule: batches are dense index ranges, so
// folding per-batch results in batch order is bit-identical at any
// worker count regardless of which worker ran what.
//
// Campaigns do not own pools: shared_pool(workers) hands out one
// process-wide pool per worker count, and every fan-out on it waits
// for its own tasks only, so concurrent campaigns share one set of
// threads.  A task running on a pool must not start a fan-out on the
// same pool (the nested wait could hold every worker).
//
// Lock discipline is machine-checked: every shared field is
// GUARDED_BY a mutex and CI's clang lane compiles this header with
// -Wthread-safety -Werror (see util/annotations.hpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "util/annotations.hpp"
#include "util/fail_point.hpp"

namespace prt::util {

/// Completion latch: counts down a fixed number of completions and
/// keeps the first failure for the waiter to rethrow.
class Latch {
 public:
  explicit Latch(std::size_t count) : pending_(count) {}

  void count_down(std::exception_ptr error = nullptr) PRT_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    if (error && !error_) error_ = std::move(error);
    // Notify under the lock: the waiter destroys the latch as soon as
    // it observes pending_ == 0.
    if (--pending_ == 0) done_.notify_all();
  }

  void wait_and_rethrow() PRT_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (pending_ != 0) done_.wait(lock);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Mutex mutex_;
  CondVar done_;
  std::size_t pending_ PRT_GUARDED_BY(mutex_);
  std::exception_ptr error_ PRT_GUARDED_BY(mutex_);
};

/// Default worker count for pools and campaign fan-out: the hardware
/// concurrency, minimum 1.
[[nodiscard]] inline unsigned default_worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

class ThreadPool {
 public:
  /// `workers == 0` sizes the pool to default_worker_count() (the
  /// hardware concurrency, minimum 1).
  explicit ThreadPool(unsigned workers = 0) {
    if (workers == 0) workers = default_worker_count();
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (auto& t : threads_) t.join();
  }

  [[nodiscard]] unsigned workers() const {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueues a task.  `on_failure` receives the exception of a task
  /// that threw, or of one the worker lost before running it (the
  /// "thread_pool.task" fail point), so no failure goes unnoticed; it
  /// runs on the worker and must not throw.  Tasks must not block on
  /// the pool.
  void submit(std::function<void()> task,
              std::function<void(std::exception_ptr)> on_failure)
      PRT_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      tasks_.push({std::move(task), std::move(on_failure)});
    }
    wake_.notify_one();
  }

  /// Fixed-batch fan-out: splits [0, total) into ceil(total /
  /// batch_size) batches, enqueues one task per batch in batch order,
  /// runs `fn(batch_index, begin, end)` for each and blocks until all
  /// are done.  Batch b always covers [b * batch_size, min((b+1) *
  /// batch_size, total)), so callers that merge per-batch results in
  /// batch-index order produce output bit-identical to a serial loop
  /// at any worker count.
  ///
  /// The call waits for its own tasks only (a per-call latch), so
  /// several callers may fan out over one pool at once.  The first
  /// failure — a batch that threw, or a task the worker lost before
  /// running it — is rethrown here once every task of the call has
  /// finished or been lost.  batch_size is clamped to >= 1; total == 0
  /// runs nothing.
  void parallel_for_batches(
      std::size_t total, std::size_t batch_size,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
    if (total == 0) return;
    if (batch_size == 0) batch_size = 1;
    const std::size_t nbatches = (total + batch_size - 1) / batch_size;
    Latch latch(nbatches);
    for (std::size_t b = 0; b < nbatches; ++b) {
      submit(
          [&, b] {
            const std::size_t begin = b * batch_size;
            fn(b, begin, std::min(begin + batch_size, total));
            latch.count_down();
          },
          [&latch](std::exception_ptr error) {
            latch.count_down(std::move(error));
          });
    }
    latch.wait_and_rethrow();
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::function<void(std::exception_ptr)> on_failure;
  };

  void worker_loop() PRT_EXCLUDES(mutex_) {
    for (;;) {
      Task task;
      {
        MutexLock lock(mutex_);
        while (!stopping_ && tasks_.empty()) wake_.wait(lock);
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
      }
      // A throwing task must neither std::terminate the worker nor skip
      // its caller's completion path.  The "fail point" hook lets tests
      // lose a task before it runs.  The failure path runs after the
      // handler has ended, so the worker no longer holds the exception
      // when on_failure hands it to a waiting thread.
      std::exception_ptr failure;
      try {
        FailPoint::hit("thread_pool.task");
        task.fn();
      } catch (...) {
        failure = std::current_exception();
      }
      if (failure) task.on_failure(std::move(failure));
    }
  }

  std::vector<std::thread> threads_;
  Mutex mutex_;
  CondVar wake_;
  std::queue<Task> tasks_ PRT_GUARDED_BY(mutex_);
  bool stopping_ PRT_GUARDED_BY(mutex_) = false;
};

/// The process-wide pool of `workers` threads (0 = default_worker_count()),
/// created on first use and kept until exit.  Every campaign fan-out
/// with the same worker count runs on the same threads instead of
/// spawning a pool per engine, so concurrent campaigns share them.
[[nodiscard]] inline ThreadPool& shared_pool(unsigned workers) {
  class Registry {
   public:
    ThreadPool& get(unsigned n) PRT_EXCLUDES(mutex_) {
      MutexLock lock(mutex_);
      std::unique_ptr<ThreadPool>& pool = pools_[n];
      if (!pool) pool = std::make_unique<ThreadPool>(n);
      return *pool;
    }

   private:
    Mutex mutex_;
    std::map<unsigned, std::unique_ptr<ThreadPool>> pools_
        PRT_GUARDED_BY(mutex_);
  };
  static Registry registry;
  return registry.get(workers != 0 ? workers : default_worker_count());
}

}  // namespace prt::util
