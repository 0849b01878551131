// The one generic campaign driver both public campaign types are
// instances of.
//
//   CampaignDriver<Workload>  — run_stoppable() as one job on the
//     campaign executor and, per batch, the width rule: every fault
//     rides a lane, 512 per sweep (64 on a batch thinner than
//     kWideMinFaults);
//   PrtWorkload / MarchWorkload — the only parts that differ: how the
//     golden transcript is fetched from the analysis::OracleCache and
//     how one lane batch replays it.
//
// There is one route per campaign (DESIGN.md §20): add_fault takes
// every fault FaultyRam::inject takes, every valid PRT scheme replays
// at its field degree and every March test at its word width.  The
// live reference — core::run_prt (prt_algorithm) and
// march::run_march_backgrounds (march_algorithm) under run_campaign —
// stays outside the engines, as the yardstick they are checked
// against.  The paper programs, the examples and the TDB designer all
// run their campaigns through this driver (DESIGN.md §19).
//
// The public classes in campaign_engine.hpp / march_campaign.hpp are
// thin facades over a driver instance; CampaignSuite and
// CampaignService run the same drivers as jobs on the same executor
// (batch_runner below).
//
// Header is internal to analysis/ (included by the campaign .cpp files
// only); the public surfaces are campaign_engine.hpp,
// march_campaign.hpp and campaign_suite.hpp.  See DESIGN.md §10.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_shard.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_packed.hpp"
#include "march/march_runner.hpp"
#include "util/thread_pool.hpp"

namespace prt::analysis::detail {

/// Fewest faults a shard range needs to run on the 512-lane word; a
/// thinner range runs the 64-lane word, where a wide sweep would burn
/// whole-word XORs on mostly empty lanes.
inline constexpr std::size_t kWideMinFaults = 256;

/// PRT-scheme workload: golden artifacts from OracleCache::prt, lane
/// batches over core::run_prt_packed.
class PrtWorkload {
 public:
  /// Throws std::invalid_argument on malformed `opt` or `scheme`
  /// (validate_campaign_options, core::validate_prt_scheme).
  PrtWorkload(core::PrtScheme scheme, const CampaignOptions& opt,
              bool early_abort, OracleCache& cache)
      : scheme_(std::move(scheme)), early_abort_(early_abort) {
    validate_campaign_options(opt);
    core::validate_prt_scheme(scheme_, opt.n, opt.m);
    entry_ = cache.prt(scheme_, opt.n);
  }

  /// Per-shard mutable state: the packed replay scratches (one per lane
  /// width; the unused one never allocates — PackedScratchT vectors
  /// grow on first use), owned by exactly one worker at a time.
  struct ShardState {
    core::PackedScratchT<mem::LaneWord> scratch64;
    core::PackedScratchT<mem::WideWord<8>> scratch512;
    template <typename W>
    core::PackedScratchT<W>& scratch() {
      if constexpr (std::is_same_v<W, mem::WideWord<8>>) {
        return scratch512;
      } else {
        return scratch64;
      }
    }
  };

  /// Runs one flushed lane batch at the batch's width; returns
  /// {detected lane word, ops to charge for the whole batch} —
  /// scalar_ops reproduces, per lane, exactly what the live reference
  /// would have issued for that fault.
  template <typename W>
  std::pair<W, std::uint64_t> run_batch(
      ShardState& s, mem::PackedFaultRamT<W>& batch) const {
    const core::PackedRunOptions run{.early_abort = early_abort_};
    const core::PackedVerdictT<W> v = core::run_prt_packed(
        batch, entry_->transcript, run, s.template scratch<W>());
    return {v.detected & batch.active_mask(), v.scalar_ops};
  }

  [[nodiscard]] const core::PrtScheme& scheme() const { return scheme_; }
  [[nodiscard]] const std::string& name() const { return scheme_.name; }

 private:
  core::PrtScheme scheme_;
  std::shared_ptr<const OracleCache::PrtEntry> entry_;
  bool early_abort_;
};

/// March-test workload: the whole background sweep on the m-bit memory
/// compiled once (OracleCache::march), lane batches over
/// march::run_march_packed.
class MarchWorkload {
 public:
  /// Throws std::invalid_argument on malformed `opt` and on March
  /// tests whose data indices fall outside the {0, 1} notation (a
  /// data index the background expansion cannot represent).
  MarchWorkload(march::MarchTest test, const CampaignOptions& opt,
                bool early_abort, OracleCache& cache)
      : test_(std::move(test)), early_abort_(early_abort) {
    validate_campaign_options(opt);
    for (const march::MarchElement& elem : test_.elements) {
      for (const march::MarchOp& op : elem.ops) {
        if (op.data > 1) {
          throw std::invalid_argument(
              "MarchCampaign: op data index must be 0 or 1, got " +
              std::to_string(op.data));
        }
      }
    }
    entry_ = cache.march(test_, opt.n, /*background=*/false,
                         march::kDefaultDelayTicks, opt.m);
  }

  /// The March replay keeps no state between batches.
  struct ShardState {};

  template <typename W>
  std::pair<W, std::uint64_t> run_batch(ShardState&,
                                        mem::PackedFaultRamT<W>& batch) const {
    const march::MarchRunOptions run{.early_abort = early_abort_};
    const core::PackedVerdictT<W> v =
        march::run_march_packed(batch, entry_->transcript, run);
    return {v.detected & batch.active_mask(), v.scalar_ops};
  }

  [[nodiscard]] const march::MarchTest& test() const { return test_; }
  [[nodiscard]] const std::string& name() const { return test_.name; }

 private:
  march::MarchTest test_;
  std::shared_ptr<const OracleCache::MarchEntry> entry_;
  bool early_abort_;
};

/// The generic driver: one executor job per run, the width rule per
/// batch.  Workload supplies the campaign-type-specific hooks
/// (ShardState, run_batch).  Holds no mutable state, so concurrent runs
/// on one driver are independent.
template <typename Workload>
class CampaignDriver {
 public:
  CampaignDriver(Workload workload, const CampaignOptions& opt,
                 unsigned threads)
      : workload_(std::move(workload)), opt_(opt), threads_(threads) {}

  CampaignDriver(const CampaignDriver&) = delete;
  CampaignDriver& operator=(const CampaignDriver&) = delete;

  /// Fills one batch over universe indices [begin, end).  Stateless
  /// across calls (fresh ShardState per batch), so the batches merge —
  /// in batch order — to the same CampaignResult whoever runs them.
  /// Polls `stop` per fault; returns false (discard `out`, it is
  /// partial) once a stop is observed.
  ///
  /// Width rule: a range of at least kWideMinFaults faults runs the
  /// 512-lane WideWord<8>, a thinner one the 64-lane LaneWord.  The
  /// choice is verdict-neutral: both instantiations share one
  /// templated replay, so `out` is bit-identical whichever word runs.
  bool run_shard(std::span<const mem::Fault> universe, std::size_t begin,
                 std::size_t end, CampaignResult& out,
                 const util::StopToken& stop = {}) const {
    if (end - begin >= kWideMinFaults) {
      return lane_shard<mem::WideWord<8>>(universe, begin, end, out, stop);
    }
    return lane_shard<mem::LaneWord>(universe, begin, end, out, stop);
  }

  /// One executor job over the universe: batches poll `stop` per
  /// fault, interrupted batches are discarded whole, and the outcome
  /// carries the merge of the completed batches plus why the run ended
  /// (fault_sim.hpp CampaignOutcome); with a default token the result
  /// is identical at any thread count.  A batch that throws, or a pool
  /// task that was lost, rethrows here.  Concurrent calls share the
  /// process-wide pool for the worker count, each waiting only for its
  /// own batches; must not be called from a task already running on a
  /// campaign pool (the nested wait could hold every worker).
  [[nodiscard]] CampaignOutcome run_stoppable(
      std::span<const mem::Fault> universe,
      const util::StopToken& stop) const {
    auto job = std::make_shared<Job>(stop);
    job->size = universe.size();
    job->run = [this, universe](std::size_t begin, std::size_t end,
                                CampaignResult& out,
                                const util::StopToken& token) {
      return run_shard(universe, begin, end, out, token);
    };
    return run_jobs(threads_, {job}).front();
  }

  [[nodiscard]] const Workload& workload() const { return workload_; }

 private:
  /// The lane-batched shard loop at one lane width.
  template <typename W>
  bool lane_shard(std::span<const mem::Fault> universe, std::size_t begin,
                  std::size_t end, CampaignResult& out,
                  const util::StopToken& stop) const {
    typename Workload::ShardState state;
    mem::PackedFaultRamT<W> packed(opt_.n, opt_.m);
    auto run_batch = [&](mem::PackedFaultRamT<W>& batch) {
      return workload_.run_batch(state, batch);
    };
    return lane_batched_shard(universe, begin, end, packed, out, run_batch,
                              stop);
  }

  Workload workload_;
  CampaignOptions opt_;
  unsigned threads_;
};

using PrtDriver = CampaignDriver<PrtWorkload>;
using MarchDriver = CampaignDriver<MarchWorkload>;

/// An executor batch runner over `universe` for a driver it keeps
/// alive — how the suite and the service put a driver on a job.
template <typename Driver>
[[nodiscard]] Job::RunBatch batch_runner(std::shared_ptr<const Driver> driver,
                                         std::span<const mem::Fault> universe) {
  return [driver = std::move(driver), universe](
             std::size_t begin, std::size_t end, CampaignResult& out,
             const util::StopToken& stop) {
    return driver->run_shard(universe, begin, end, out, stop);
  };
}

/// The one construction path every public campaign surface goes
/// through (CampaignEngine, MarchCampaign, CampaignSuite,
/// CampaignService): build the workload against the shared cache and
/// wrap it in a driver.
[[nodiscard]] inline std::unique_ptr<PrtDriver> make_driver(
    core::PrtScheme scheme, const CampaignOptions& opt,
    const EngineOptions& engine) {
  return std::make_unique<PrtDriver>(
      PrtWorkload(std::move(scheme), opt, engine.early_abort,
                  OracleCache::global()),
      opt, engine.threads);
}

[[nodiscard]] inline std::unique_ptr<MarchDriver> make_driver(
    march::MarchTest test, const CampaignOptions& opt,
    const EngineOptions& engine) {
  return std::make_unique<MarchDriver>(
      MarchWorkload(std::move(test), opt, engine.early_abort,
                    OracleCache::global()),
      opt, engine.threads);
}

}  // namespace prt::analysis::detail
