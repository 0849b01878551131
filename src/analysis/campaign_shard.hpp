// Internal shard-loop scaffolding under the generic campaign driver
// (campaign_driver.hpp): per-fault tallying, the lane batching loop
// with its escape re-sort, and the fixed-batch fan-out over the shared
// pool with the order-deterministic merge.  Keeping every campaign
// type on one copy of this machinery is what keeps their
// bit-identical-to-serial guarantees in lockstep — fix it here, all
// paths get it.
//
// Header is internal to analysis/ (included via campaign_driver.hpp
// by the campaign .cpp files only); the public surfaces are
// campaign_engine.hpp, march_campaign.hpp and campaign_suite.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/fault_sim.hpp"
#include "mem/packed_fault_ram.hpp"
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

/// All-scalar shard loop: run_scalar(i) -> detected, charging its own
/// ops to `out`.  Polls `stop` per fault; returns false (shard
/// abandoned — `out` is partial and must be discarded) once a stop is
/// observed, true when the shard ran to completion.  A
/// default-constructed token never stops, so the poll is one null
/// check on the non-cancellable paths.
template <typename RunScalar>
bool scalar_shard(std::span<const mem::Fault> universe, std::size_t begin,
                  std::size_t end, CampaignResult& out,
                  RunScalar&& run_scalar, const util::StopToken& stop = {}) {
  for (std::size_t i = begin; i < end; ++i) {
    if (stop.stop_requested()) return false;
    tally_fault(out, universe, i, run_scalar(i));
    ++out.scalar_faults;
  }
  return true;
}

/// Lane-batched shard loop: compatible faults ride the packed ram
/// kLanes at a time (64 for LaneWord, 512 for WideWord<8>), the rest
/// run scalar in place.  run_batch(packed) runs one flushed batch and
/// returns {detected lane word, ops to charge for the whole batch};
/// run_scalar(i) -> detected as above.  Escapes are gathered out of
/// order and sorted once — counts and op sums are order-independent,
/// so the shard output is bit-identical to the all-scalar loop *and*
/// to itself at the other lane width (the per-lane verdicts are
/// width-invariant).  Polls `stop` per fault, same contract as
/// scalar_shard (false = shard abandoned, discard `out`).
template <typename W, typename RunBatch, typename RunScalar>
bool lane_batched_shard(std::span<const mem::Fault> universe,
                        std::size_t begin, std::size_t end,
                        mem::PackedFaultRamT<W>& packed, CampaignResult& out,
                        RunBatch&& run_batch, RunScalar&& run_scalar,
                        const util::StopToken& stop = {}) {
  constexpr unsigned kLanes = mem::PackedFaultRamT<W>::kLanes;
  std::array<std::size_t, kLanes> batch_index{};
  auto flush = [&]() {
    const unsigned lanes = packed.lanes_used();
    if (lanes == 0) return;
    const auto [detected, ops] = run_batch(packed);
    out.ops += ops;
    out.packed_faults += lanes;
    for (unsigned lane = 0; lane < lanes; ++lane) {
      tally_fault(out, universe, batch_index[lane],
                  mem::lane_test(detected, lane));
    }
    packed.reset();
  };
  for (std::size_t i = begin; i < end; ++i) {
    if (stop.stop_requested()) return false;
    if (mem::lane_compatible(universe[i], packed.width())) {
      batch_index[packed.add_fault(universe[i])] = i;
      if (packed.lanes_used() == kLanes) flush();
    } else {
      tally_fault(out, universe, i, run_scalar(i));
      ++out.scalar_faults;
    }
  }
  flush();
  std::sort(out.escapes.begin(), out.escapes.end());
  return true;
}

/// Faults per scheduler batch: the unit the pool fan-outs steal and
/// the shard results merge over.  Four 512-lane sweeps — big enough
/// that per-batch ShardState construction amortizes, small enough that
/// idle workers find batches to steal.  Batch boundaries depend only
/// on the universe size and this constant, never on the worker count.
inline constexpr std::size_t kSchedulerBatch = 2048;

/// Fixed-batch fan-out with the order-deterministic merge: splits
/// [0, universe_size) into kSchedulerBatch-fault batches, runs them on
/// the process-wide `workers`-thread pool with the work-stealing
/// scheduler (util::ThreadPool::parallel_for_batches), and merges
/// per-batch results in batch-index order.  Runs one inline shard when
/// parallelism is off or pointless.  run_shard(begin, end, out) -> bool
/// fills one shard (false = the shard observed `stop` and abandoned;
/// its partial output is discarded).  Shards that completed before the
/// stop still count: their ranges ascend even when non-contiguous, so
/// the partial merge is an exact tally over exactly the covered faults.
/// A batch that throws, or a pool task that was lost, rethrows here —
/// a run never reports kComplete with batches missing.
///
/// Determinism: the merged CampaignResult is bit-identical at any
/// thread count.  The scheduler's stolen-batch telemetry lands in
/// result.sched, which equality ignores.
template <typename RunShard>
CampaignOutcome run_sharded(std::size_t universe_size, unsigned workers,
                            bool parallel, RunShard&& run_shard,
                            const util::StopToken& stop = {}) {
  CampaignOutcome out;
  if (!parallel || workers == 1 || universe_size < 2) {
    out.shards_total = 1;
    CampaignResult result;
    if (run_shard(std::size_t{0}, universe_size, result)) {
      result.sched.batches = 1;
      out.result = std::move(result);
      out.shards_done = 1;
    }
  } else {
    const std::size_t nbatches =
        (universe_size + kSchedulerBatch - 1) / kSchedulerBatch;
    out.shards_total = nbatches;
    std::vector<CampaignResult> shards(nbatches);
    // Completion flags are unsigned char, not vector<bool>: each batch
    // writes only its own slot, which bit-packing would turn into a
    // data race on the shared byte.
    std::vector<unsigned char> done(nbatches, 0);
    const util::StealCounters counters =
        util::shared_pool(workers).parallel_for_batches(
            universe_size, kSchedulerBatch,
            [&](std::size_t batch, std::size_t begin, std::size_t end) {
              done[batch] = run_shard(begin, end, shards[batch]) ? 1 : 0;
            });
    std::vector<CampaignResult> completed;
    completed.reserve(nbatches);
    for (std::size_t s = 0; s < nbatches; ++s) {
      if (done[s] != 0) {
        completed.push_back(std::move(shards[s]));
        ++out.shards_done;
      }
    }
    out.result = merge_results(completed);
    // Batch count is deterministic (completed batches); the steal
    // count is genuine timing telemetry and varies run to run.
    out.result.sched.batches = out.shards_done;
    out.result.sched.steals = counters.steals;
  }
  out.status = out.shards_done == out.shards_total
                   ? RunStatus::kComplete
                   : status_from(stop.reason());
  return out;
}

}  // namespace prt::analysis::detail
