// Internal shard-loop scaffolding under the one campaign driver
// (campaign_driver.hpp): per-fault tallying, the lane batching loop
// every fault runs through, and the one campaign executor — fixed
// 2048-fault batches as FIFO tasks on the shared pool with the
// order-deterministic merge.  Keeping every campaign surface on one
// copy of this machinery is what keeps their bit-identical-to-serial
// guarantees in lockstep — fix it here, all paths get it.
//
// Header is internal to analysis/ (included via campaign_driver.hpp
// by the campaign .cpp files only); the public surfaces are
// campaign_engine.hpp, march_campaign.hpp, campaign_suite.hpp and
// campaign_service.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/fault_sim.hpp"
#include "mem/packed_fault_ram.hpp"
#include "util/annotations.hpp"
#include "util/stop_token.hpp"
#include "util/thread_pool.hpp"

namespace prt::analysis::detail {

/// Records one fault's verdict into the shard result (class + overall
/// counters, escape index on a miss).
inline void tally_fault(CampaignResult& out,
                        std::span<const mem::Fault> universe, std::size_t i,
                        bool detected) {
  auto& cls = out.by_class[mem::fault_class(universe[i].kind)];
  ++cls.total;
  ++out.overall.total;
  if (detected) {
    ++cls.detected;
    ++out.overall.detected;
  } else {
    out.escapes.push_back(i);
  }
}

/// Lane-batched shard loop: the faults of [begin, end) ride the packed
/// ram kLanes at a time (64 for LaneWord, 512 for WideWord<8>) in index
/// order.  run_batch(packed) runs one flushed batch and returns
/// {detected lane word, ops to charge for the whole batch}.  Lanes are
/// tallied in fill order, so escapes come out ascending and the shard
/// output is bit-identical to itself at the other lane width (the
/// per-lane verdicts are width-invariant).  Polls `stop` per fault;
/// returns false (shard abandoned — `out` is partial and must be
/// discarded) once a stop is observed, true when the shard ran to
/// completion.  A default-constructed token never stops, so the poll
/// is one null check on the non-cancellable paths.
template <typename W, typename RunBatch>
bool lane_batched_shard(std::span<const mem::Fault> universe,
                        std::size_t begin, std::size_t end,
                        mem::PackedFaultRamT<W>& packed, CampaignResult& out,
                        RunBatch&& run_batch,
                        const util::StopToken& stop = {}) {
  constexpr unsigned kLanes = mem::PackedFaultRamT<W>::kLanes;
  std::array<std::size_t, kLanes> batch_index{};
  auto flush = [&]() {
    const unsigned lanes = packed.lanes_used();
    if (lanes == 0) return;
    const auto [detected, ops] = run_batch(packed);
    out.ops += ops;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      tally_fault(out, universe, batch_index[lane],
                  mem::lane_test(detected, lane));
    }
    packed.reset();
  };
  for (std::size_t i = begin; i < end; ++i) {
    if (stop.stop_requested()) return false;
    batch_index[packed.add_fault(universe[i])] = i;
    if (packed.lanes_used() == kLanes) flush();
  }
  flush();
  return true;
}

/// Faults per scheduler batch: the one partition every campaign
/// surface runs, checkpoints and merges over.  Four 512-lane sweeps —
/// big enough that the per-batch packed RAM and replay scratch
/// amortize, small enough that a thin request is a single batch.
/// Batch b covers [b * kSchedulerBatch, min((b+1) * kSchedulerBatch,
/// size)), a function of the universe size alone, never of the worker
/// count.
inline constexpr std::size_t kSchedulerBatch = 2048;

/// Batches of a `size`-fault universe: ceil(size / kSchedulerBatch).
[[nodiscard]] constexpr std::size_t batch_count(std::size_t size) {
  return (size + kSchedulerBatch - 1) / kSchedulerBatch;
}

/// Per-batch results of a job: slot b holds batch b's result once it
/// completed (or was adopted from a checkpoint).
using BatchResults = std::vector<std::optional<CampaignResult>>;

/// How a job ended, handed to Job::on_done: the exact merge of its
/// completed batches in batch order, the batches adopted from a
/// checkpoint and resubmitted after a failure, and what failed the
/// job (null / empty when nothing did).
struct JobOutcome {
  CampaignOutcome run;
  std::size_t resumed = 0;
  std::size_t retries = 0;
  std::exception_ptr exception;
  std::string error;
};

/// The campaign executor.  A job is a (driver, universe) pair cut into
/// fixed kSchedulerBatch batches; each pending batch is one FIFO task
/// on a pool, a failed attempt (a throw, or a task the pool lost) is
/// resubmitted up to `max_retries` times, and when the last batch
/// resolves the completed ones merge in batch order and `on_done`
/// fires.  Engines and March campaigns run one job and wait, a suite
/// one job per configuration, the service one job per dispatched
/// request with its per-batch hooks in `run` and `checkpoint`.  Hooks
/// other than `prepare` and `run` must not throw.  DESIGN.md §16.
class Job {
 public:
  /// Runs one attempt of the batch [begin, end) into a fresh `out`;
  /// false = `stop` abandoned it (`out` is discarded), a throw fails
  /// the attempt.
  using RunBatch = std::function<bool(std::size_t begin, std::size_t end,
                                      CampaignResult& out,
                                      const util::StopToken& stop)>;

  /// A failure trips `stop` to wind the job's other batches down;
  /// `parent` stops the job from outside.
  explicit Job(const util::StopToken& parent = {}) : stop(parent) {}

  // Invariant (publication, invisible to the analysis): the fields
  // below are written before start() or by `prepare`, which runs
  // before any batch task is submitted, and never again; tasks read
  // them unlocked, ordered by the pool's queue mutex.
  std::size_t size = 0;  ///< universe size
  RunBatch run;
  /// Optional setup, the job's first pool task unless the job is
  /// already stopped: may set `size`, `run` and `checkpoint` and
  /// adopt() checkpointed batches.  A throw, or the pool losing the
  /// task, fails the job before any batch runs.
  std::function<void(Job&)> prepare;
  int max_retries = 0;  ///< resubmissions per batch
  /// Called under the job lock, so each call sees a consistent
  /// snapshot and calls never overlap: every `checkpoint_every`
  /// completed batches while batches remain, and once more when the
  /// job ends incomplete with a batch done.
  std::function<void(const BatchResults&)> checkpoint;
  std::size_t checkpoint_every = 1;
  /// Called once, off the job lock, after the last batch resolved.
  std::function<void(JobOutcome)> on_done;
  util::StopSource stop;

  /// Marks checkpointed batches (batch_count(size) slots) done; call
  /// from `prepare`.  Returns how many were adopted.
  std::size_t adopt(BatchResults batches) PRT_EXCLUDES(mu_);

  /// Submits the prepare step, or every pending batch, to `pool`; the
  /// tasks keep `job` alive until on_done.
  static void start(util::ThreadPool& pool, const std::shared_ptr<Job>& job);

 private:
  static void launch(const std::shared_ptr<Job>& job) noexcept;
  static void submit_batch(const std::shared_ptr<Job>& job,
                           std::size_t b) noexcept;
  static void finish_attempt(const std::shared_ptr<Job>& job, std::size_t b,
                             CampaignResult* out,
                             std::exception_ptr error) noexcept;
  static void complete(const std::shared_ptr<Job>& job) noexcept;

  util::ThreadPool* pool_ = nullptr;
  util::Mutex mu_;
  BatchResults results_ PRT_GUARDED_BY(mu_);
  std::vector<int> attempts_ PRT_GUARDED_BY(mu_);
  std::size_t outstanding_ PRT_GUARDED_BY(mu_) = 0;
  std::size_t done_ PRT_GUARDED_BY(mu_) = 0;
  std::size_t since_checkpoint_ PRT_GUARDED_BY(mu_) = 0;
  std::size_t resumed_ PRT_GUARDED_BY(mu_) = 0;
  std::size_t retries_ PRT_GUARDED_BY(mu_) = 0;
  /// False when a stop pre-empted the batches (status = stop cause).
  bool launched_ PRT_GUARDED_BY(mu_) = false;
  std::exception_ptr error_ PRT_GUARDED_BY(mu_);
  std::string error_text_ PRT_GUARDED_BY(mu_);
};

/// Runs `jobs` on the process-wide `workers`-thread pool (0 = the
/// default worker count), setting their on_done, and blocks until all
/// resolved; returns their outcomes in job order or rethrows the first
/// failure.  Must not be called from a task already running on a
/// campaign pool: the wait could hold every worker.
[[nodiscard]] std::vector<CampaignOutcome> run_jobs(
    unsigned workers, const std::vector<std::shared_ptr<Job>>& jobs);

}  // namespace prt::analysis::detail
