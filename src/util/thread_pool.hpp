// Small fixed-size worker pool for fan-out/fan-in workloads.
//
// The fault-simulation campaigns (analysis/campaign_engine) cut a
// fault universe into fixed batches, run them on a pool and merge the
// per-batch partial results in batch order, so parallel output is
// bit-identical to the serial path.  The pool is deliberately minimal:
// fixed worker count, a mutex-guarded task queue, raw submit() /
// wait_idle(), and one blocking fan-out, `parallel_for_batches` (N
// items as fixed-size batches idle workers *steal* from each other's
// home ranges).  Determinism is the caller's merge discipline, not the
// schedule: batches are dense index ranges, so folding per-batch
// results in batch order is bit-identical at any worker count
// regardless of which worker ran what.
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
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
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

/// Splits [0, total) into `parts` contiguous ascending chunks — dense
/// chunk indices, sizes differing by at most one — and calls
/// fn(chunk, begin, end) for each, synchronously.  This is THE
/// partition shape every campaign merge relies on (contiguous
/// ascending ranges folded in chunk order are what make parallel
/// results bit-identical to serial ones); keep every fan-out on this
/// one splitter.  parts is clamped to [1, total]; total = 0 calls
/// nothing.
template <typename Fn>
void for_each_chunk(std::size_t total, std::size_t parts, Fn&& fn) {
  if (total == 0) return;
  const std::size_t w = std::min(std::max<std::size_t>(parts, 1), total);
  const std::size_t base = total / w;
  const std::size_t extra = total % w;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < w; ++i) {
    const std::size_t end = begin + base + (i < extra ? 1 : 0);
    fn(static_cast<unsigned>(i), begin, end);
    begin = end;
  }
}

/// Telemetry of one parallel_for_batches fan-out.  Pure observability
/// — which worker ran which batch never changes merged output — but
/// the bench records it per section so the scaling curves show whether
/// stealing actually happened (a perfectly uniform workload steals ~0
/// batches; early-abort universes steal plenty).
struct StealCounters {
  /// Batches executed (== the batch count of the fan-out when no batch
  /// threw).
  std::uint64_t batches = 0;
  /// Batches executed by a worker other than the one whose home range
  /// contained them.
  std::uint64_t steals = 0;
};

/// Default worker count for pools and campaign fan-out: the
/// PRT_THREADS environment variable when set to a positive integer
/// (benches and CI pin it for reproducible runs), else the hardware
/// concurrency, minimum 1.
[[nodiscard]] inline unsigned default_worker_count() {
  if (const char* env = std::getenv("PRT_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 4096) {
      return static_cast<unsigned>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

class ThreadPool {
 public:
  /// `workers == 0` sizes the pool to default_worker_count() (the
  /// PRT_THREADS override, else the hardware concurrency, minimum 1).
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

  /// Enqueues a task.  Tasks must not themselves block on the pool.
  /// A task that throws does not kill the worker or wedge wait_idle():
  /// the first escaped exception is captured (take_unhandled_error())
  /// and the worker keeps draining.  parallel_for_batches routes its
  /// tasks' failures to its caller instead.
  void submit(std::function<void()> task) PRT_EXCLUDES(mutex_) {
    enqueue({std::move(task), nullptr});
  }

  /// Blocks until every queued task has finished — the raw-submit()
  /// barrier.  Fan-outs never call it: on a shared pool it would also
  /// wait for every other caller's tasks.
  void wait_idle() PRT_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    while (!tasks_.empty() || active_ != 0) idle_.wait(lock);
  }

  /// Returns (and clears) the first exception that escaped a raw
  /// submit() task, if any.  Call after wait_idle() when the caller
  /// wants to surface unguarded task failures instead of dropping
  /// them.
  //
  // Invariant (exchange-under-lock, beyond what GUARDED_BY states):
  // `unhandled_` is first-write-wins (workers only store into a null
  // slot) and exactly-once on the way out — concurrent takers race
  // through this one exchange, so one of them receives the exception
  // and the rest see nullptr; the error is never duplicated or
  // dropped (pinned by ThreadPool.
  // ConcurrentTakeUnhandledErrorHandsOutExactlyOnce).
  [[nodiscard]] std::exception_ptr take_unhandled_error()
      PRT_EXCLUDES(mutex_) {
    MutexLock lock(mutex_);
    return std::exchange(unhandled_, nullptr);
  }

  /// Work-stealing fan-out: splits [0, total) into ceil(total /
  /// batch_size) fixed-size batches, assigns each worker a contiguous
  /// *home range* of batch indices, and runs
  /// `fn(batch_index, begin, end)` for every batch, blocking until all
  /// are done.  A worker drains its own range first, then steals
  /// batches from the other ranges in ring order — so a worker whose
  /// batches finish early (early-abort universes, cheap fault classes)
  /// keeps the cores busy instead of idling at the static-chunk
  /// barrier.
  ///
  /// Determinism contract: batch indices are dense, batch `b` always
  /// covers exactly [b * batch_size, min((b+1) * batch_size, total)),
  /// and every batch runs exactly once — the schedule (who ran it,
  /// when) is the ONLY nondeterminism.  Callers that merge per-batch
  /// results in batch-index order therefore produce output
  /// bit-identical to a serial loop at any worker count (the campaign
  /// layer's run_sharded does exactly this).
  ///
  /// Claim protocol: each home range has one atomic cursor; claiming —
  /// own or stolen — is a fetch_add on that cursor, so every batch
  /// index below the range end is returned to exactly one claimant and
  /// overshoot past the end claims nothing.  If a batch throws, its
  /// claimant abandons the rest of its draining (thieves still pick up
  /// the unclaimed remainder).
  ///
  /// The call waits for its own tasks only (a per-call latch, never
  /// wait_idle()), so several callers may fan out over one pool at
  /// once.  The first failure — a batch that threw, or a task the
  /// worker lost before running it — is rethrown here once every task
  /// of the call has finished or been lost.
  ///
  /// Returns the executed/stolen batch counters (telemetry only;
  /// meaningless when an exception was rethrown).  batch_size is
  /// clamped to >= 1; total == 0 runs nothing.
  StealCounters parallel_for_batches(
      std::size_t total, std::size_t batch_size,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
    StealCounters counters;
    if (total == 0) return counters;
    if (batch_size == 0) batch_size = 1;
    const std::size_t nbatches = (total + batch_size - 1) / batch_size;
    const std::size_t ntasks =
        std::min<std::size_t>(std::max(workers(), 1U), nbatches);
    // Home ranges come from the same splitter every contiguous fan-out
    // uses; range ends are immutable, so only the cursors need atomics.
    std::vector<std::size_t> home_end(ntasks, 0);
    struct alignas(64) Cursor {
      std::atomic<std::size_t> next{0};
    };
    const std::unique_ptr<Cursor[]> cursor(new Cursor[ntasks]);
    for_each_chunk(nbatches, ntasks,
                   [&](unsigned i, std::size_t begin, std::size_t end) {
                     cursor[i].next.store(begin, std::memory_order_relaxed);
                     home_end[i] = end;
                   });
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    auto run_batch = [&](std::size_t b) {
      const std::size_t begin = b * batch_size;
      const std::size_t end = std::min(begin + batch_size, total);
      fn(b, begin, end);
      executed.fetch_add(1, std::memory_order_relaxed);
    };
    FanOut fan_out(ntasks);
    for (std::size_t t = 0; t < ntasks; ++t) {
      enqueue({[&, t] {
                 // Drain the home range, then sweep the other ranges in
                 // ring order starting past our own (spreads thieves
                 // across victims instead of mobbing range 0).
                 for (std::size_t b; (b = cursor[t].next.fetch_add(
                                          1, std::memory_order_relaxed)) <
                                     home_end[t];) {
                   run_batch(b);
                 }
                 for (std::size_t v = t + 1; v < t + ntasks; ++v) {
                   const std::size_t victim = v % ntasks;
                   for (std::size_t b;
                        (b = cursor[victim].next.fetch_add(
                             1, std::memory_order_relaxed)) <
                        home_end[victim];) {
                     run_batch(b);
                     stolen.fetch_add(1, std::memory_order_relaxed);
                   }
                 }
               },
               &fan_out});
    }
    fan_out.wait_and_rethrow();
    counters.batches = executed.load(std::memory_order_relaxed);
    counters.steals = stolen.load(std::memory_order_relaxed);
    return counters;
  }

 private:
  /// Completion latch of one parallel_for_batches call: counts the
  /// call's outstanding tasks and keeps the first failure for the
  /// caller to rethrow.
  class FanOut {
   public:
    explicit FanOut(std::size_t tasks) : pending_(tasks) {}

    void finish(std::exception_ptr error) PRT_EXCLUDES(mutex_) {
      MutexLock lock(mutex_);
      if (error && !error_) error_ = std::move(error);
      // Notify under the lock: the caller destroys the latch as soon
      // as it observes pending_ == 0.
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

  /// A queued task; `fan_out` is null for raw submit() tasks.
  struct Task {
    std::function<void()> fn;
    FanOut* fan_out = nullptr;
  };

  void enqueue(Task task) PRT_EXCLUDES(mutex_) {
    {
      MutexLock lock(mutex_);
      tasks_.push(std::move(task));
    }
    wake_.notify_one();
  }

  void worker_loop() PRT_EXCLUDES(mutex_) {
    for (;;) {
      Task task;
      {
        MutexLock lock(mutex_);
        while (!stopping_ && tasks_.empty()) wake_.wait(lock);
        if (stopping_ && tasks_.empty()) return;
        task = std::move(tasks_.front());
        tasks_.pop();
        ++active_;
      }
      // A throwing task must neither std::terminate the worker nor
      // skip the bookkeeping below (which would deadlock wait_idle(),
      // a fan-out's latch and the destructor).  The "fail point" hook
      // lets tests lose a task before it runs.
      std::exception_ptr error;
      try {
        FailPoint::hit("thread_pool.task");
        task.fn();
      } catch (...) {
        error = std::current_exception();
      }
      if (task.fan_out != nullptr) {
        task.fan_out->finish(std::exchange(error, nullptr));
      }
      {
        MutexLock lock(mutex_);
        if (error && !unhandled_) unhandled_ = std::move(error);
        --active_;
      }
      idle_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  Mutex mutex_;
  CondVar wake_;
  CondVar idle_;
  std::queue<Task> tasks_ PRT_GUARDED_BY(mutex_);
  std::size_t active_ PRT_GUARDED_BY(mutex_) = 0;
  bool stopping_ PRT_GUARDED_BY(mutex_) = false;
  std::exception_ptr unhandled_ PRT_GUARDED_BY(mutex_);
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
