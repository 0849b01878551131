// The one campaign driver every campaign surface runs on.
//
// A campaign carries only what its packed replay reads: the golden
// core::OpTranscript cached in analysis::OracleCache, early_abort and
// the worker count.  CampaignDriver runs one job on the campaign
// executor per run_stoppable() and, per batch, the width rule: every
// fault rides a lane, 512 per sweep (64 on a batch thinner than
// kWideMinFaults).  A lane batch replays a transcript with PRT
// iterations through core::run_prt_packed and any other transcript (a
// March sweep) through march::run_march_packed — the one place in
// analysis/ either replay is called (scripts/run_lint.py).
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
// CampaignEngine (and MarchCampaign, its alias) is a thin facade over
// a driver; CampaignSuite and CampaignService put drivers on the same
// executor as jobs (runner below).  The two make_driver overloads are
// the only construction path and hold the per-kind validation.
//
// Header is internal to analysis/ (included by the campaign .cpp files
// only); the public surfaces are campaign_engine.hpp,
// march_campaign.hpp and campaign_suite.hpp.  See DESIGN.md §10/§22.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/campaign_shard.hpp"
#include "analysis/fault_sim.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_packed.hpp"
#include "march/march_runner.hpp"

namespace prt::analysis::detail {

/// Fewest faults a shard range needs to run on the 512-lane word; a
/// thinner range runs the 64-lane word, where a wide sweep would burn
/// whole-word XORs on mostly empty lanes.
inline constexpr std::size_t kWideMinFaults = 256;

/// One campaign: a cached transcript replayed on packed fault lanes.
/// Holds no mutable state, so concurrent runs on one driver (or its
/// copies) are independent, and a copy costs one shared_ptr.
class CampaignDriver {
 public:
  CampaignDriver(std::shared_ptr<const core::OpTranscript> transcript,
                 const EngineOptions& engine)
      : transcript_(std::move(transcript)),
        early_abort_(engine.early_abort),
        threads_(engine.threads) {}

  /// Fills one batch over universe indices [begin, end).  Stateless
  /// across calls, so the batches merge — in batch order — to the same
  /// CampaignResult whoever runs them.  Polls `stop` per fault;
  /// returns false (discard `out`, it is partial) once a stop is
  /// observed.
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

  /// An executor batch runner over `universe` holding a copy of this
  /// driver — how a job (the engine's, a suite configuration's, a
  /// service request's) runs it.
  [[nodiscard]] Job::RunBatch runner(
      std::span<const mem::Fault> universe) const {
    return [driver = *this, universe](std::size_t begin, std::size_t end,
                                      CampaignResult& out,
                                      const util::StopToken& stop) {
      return driver.run_shard(universe, begin, end, out, stop);
    };
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
    job->run = runner(universe);
    return run_jobs(threads_, {job}).front();
  }

 private:
  /// The lane-batched shard loop at one lane width.  A transcript with
  /// PRT iterations replays through run_prt_packed (its scratch never
  /// allocates otherwise); any other — a March sweep, even of a test
  /// with no elements — through run_march_packed.
  template <typename W>
  bool lane_shard(std::span<const mem::Fault> universe, std::size_t begin,
                  std::size_t end, CampaignResult& out,
                  const util::StopToken& stop) const {
    const core::OpTranscript& t = *transcript_;
    const bool prt = !t.iterations.empty();
    core::PackedScratchT<W> scratch;
    mem::PackedFaultRamT<W> packed(t.n, t.width);
    auto run_batch = [&](mem::PackedFaultRamT<W>& batch) {
      const core::PackedVerdictT<W> v =
          prt ? core::run_prt_packed(batch, t, {.early_abort = early_abort_},
                                     scratch)
              : march::run_march_packed(batch, t,
                                        {.early_abort = early_abort_});
      return std::pair{v.detected & batch.active_mask(), v.scalar_ops};
    };
    return lane_batched_shard(universe, begin, end, packed, out, run_batch,
                              stop);
  }

  std::shared_ptr<const core::OpTranscript> transcript_;
  bool early_abort_;
  unsigned threads_;
};

/// The one construction path every public campaign surface goes
/// through (CampaignEngine, CampaignSuite, CampaignService): validates
/// the request and fetches its transcript from the shared cache.
/// Throws std::invalid_argument on malformed `opt` or `scheme`
/// (validate_campaign_options, core::validate_prt_scheme).
[[nodiscard]] inline CampaignDriver make_driver(const core::PrtScheme& scheme,
                                                const CampaignOptions& opt,
                                                const EngineOptions& engine) {
  validate_campaign_options(opt);
  core::validate_prt_scheme(scheme, opt.n, opt.m);
  return {OracleCache::global().prt(scheme, opt.n), engine};
}

/// March overload: the whole background sweep on the m-bit memory.
/// Throws std::invalid_argument on malformed `opt` and on March tests
/// whose data indices fall outside the {0, 1} notation (a data index
/// the background expansion cannot represent).
[[nodiscard]] inline CampaignDriver make_driver(const march::MarchTest& test,
                                                const CampaignOptions& opt,
                                                const EngineOptions& engine) {
  validate_campaign_options(opt);
  for (const march::MarchElement& elem : test.elements) {
    for (const march::MarchOp& op : elem.ops) {
      if (op.data > 1) {
        throw std::invalid_argument(
            "MarchCampaign: op data index must be 0 or 1, got " +
            std::to_string(op.data));
      }
    }
  }
  return {OracleCache::global().march(test, opt.n, /*background=*/false,
                                      march::kDefaultDelayTicks, opt.m),
          engine};
}

}  // namespace prt::analysis::detail
