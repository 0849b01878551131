// The one generic campaign driver both public campaign types are
// instances of.
//
//   CampaignDriver<Workload>  — run_stoppable() as one job on the
//     campaign executor and, per batch, the packing rule: a packable
//     workload puts every lane_compatible fault on a lane (512 per
//     sweep, 64 on a batch thinner than kWideMinFaults) and runs the
//     rest on its scalar reference; a workload that cannot pack runs
//     every fault there;
//   PrtWorkload / MarchWorkload — the only parts that differ: how the
//     golden artifacts are fetched from the analysis::OracleCache, how
//     one fault runs on the scalar reference, how one lane batch
//     replays its transcript, and whether the workload packs at all.
//
// Each workload has exactly one scalar route, the live reference that
// run_campaign also runs: core::run_prt with the cached oracle
// (prt_algorithm) or march::run_march_backgrounds (march_algorithm).
// Every valid PRT scheme packs; March packs at m = 1 (DESIGN.md §17).
// The paper programs, the examples and the TDB designer all run their
// campaigns through this driver (DESIGN.md §19).
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
#include "mem/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace prt::analysis::detail {

/// Fewest faults a shard range needs to run on the 512-lane word; a
/// thinner range runs the 64-lane word, where a wide sweep would burn
/// whole-word XORs on mostly empty lanes.
inline constexpr std::size_t kWideMinFaults = 256;

/// PRT-scheme workload: golden artifacts from OracleCache::prt, the
/// live oracle-backed core::run_prt per scalar fault, packed batches
/// over core::run_prt_packed.
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

  /// Per-shard mutable state: one rewindable FaultyRam and the packed
  /// replay scratches (one per lane width; the unused one never
  /// allocates — PackedScratchT vectors grow on first use), owned by
  /// exactly one worker at a time.
  struct ShardState {
    explicit ShardState(const CampaignOptions& opt)
        : ram(opt.n, opt.m, opt.ports) {}
    mem::FaultyRam ram;
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

  /// Every scheme core::validate_prt_scheme admits packs: its field
  /// degree is the word width, so the packed ram carries one bit plane
  /// per field bit and the transcript's tap matrices line up.
  [[nodiscard]] bool packable() const { return true; }

  /// Runs one fault on the live reference; returns detected, charges
  /// its ops.
  bool run_fault(ShardState& s, const mem::Fault& fault,
                 std::uint64_t& ops) const {
    s.ram.reset(fault);
    const core::PrtRunOptions run{.early_abort = early_abort_,
                                  .record_iterations = false};
    const bool detected =
        core::run_prt(s.ram, scheme_, entry_->oracle, run).detected();
    ops += s.ram.total_stats().total();
    return detected;
  }

  /// Runs one flushed lane batch at the batch's width; returns
  /// {detected lane word, ops to charge for the whole batch} —
  /// scalar_ops reproduces, per lane, exactly what the scalar path
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
  [[nodiscard]] const core::PrtOracle& oracle() const {
    return entry_->oracle;
  }
  [[nodiscard]] const std::string& name() const { return scheme_.name; }

 private:
  core::PrtScheme scheme_;
  std::shared_ptr<const OracleCache::PrtEntry> entry_;
  bool early_abort_;
};

/// March-test workload: the live background sweep per scalar fault;
/// at m = 1 also the transcript from OracleCache::march, which packed
/// batches replay through march::run_march_packed.
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
    backgrounds_ = march::standard_backgrounds(opt.m);
    // standard_backgrounds' contract: every background fits the m-bit
    // word.  A wider word would silently mis-expand data index 1
    // (~background) — reject it here, not in a worker thread.
    for (const mem::Word bg : backgrounds_) {
      if (opt.m < 32 && (bg >> opt.m) != 0) {
        throw std::invalid_argument(
            "MarchCampaign: background " + std::to_string(bg) +
            " wider than the m = " + std::to_string(opt.m) + " word");
      }
    }
    // m = 1 has the single background 0, so one compiled transcript
    // covers the whole background set the reference sweeps.  The packed
    // March replay runs one bit plane, so wider words cannot pack.
    if (opt.m == 1) entry_ = cache.march(test_, opt.n, /*background=*/false);
  }

  struct ShardState {
    explicit ShardState(const CampaignOptions& opt)
        : ram(opt.n, opt.m, opt.ports) {}
    mem::FaultyRam ram;
  };

  [[nodiscard]] bool packable() const { return entry_ != nullptr; }

  bool run_fault(ShardState& s, const mem::Fault& fault,
                 std::uint64_t& ops) const {
    s.ram.reset(fault);
    const march::MarchRunOptions run{.early_abort = early_abort_};
    const bool detected =
        march::run_march_backgrounds(test_, s.ram, backgrounds_, run).fail;
    ops += s.ram.total_stats().total();
    return detected;
  }

  template <typename W>
  std::pair<W, std::uint64_t> run_batch(ShardState&,
                                        mem::PackedFaultRamT<W>& batch) const {
    const march::MarchRunOptions run{.early_abort = early_abort_};
    const march::MarchPackedVerdictT<W> v =
        march::run_march_packed(batch, entry_->transcript, run);
    return {v.detected & batch.active_mask(), v.scalar_ops};
  }

  [[nodiscard]] const march::MarchTest& test() const { return test_; }
  [[nodiscard]] const std::string& name() const { return test_.name; }

 private:
  march::MarchTest test_;
  std::vector<mem::Word> backgrounds_;
  std::shared_ptr<const OracleCache::MarchEntry> entry_;
  bool early_abort_;
};

/// The generic driver: one executor job per run, the packing rule per
/// batch.  Workload supplies the four campaign-type-specific hooks
/// (ShardState, packable, run_fault, run_batch).  Holds no mutable
/// state, so concurrent runs on one driver are independent.
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
    typename Workload::ShardState state(opt_);
    auto run_scalar = [&](std::size_t i) {
      return workload_.run_fault(state, universe[i], out.ops);
    };
    if (!workload_.packable()) {
      return scalar_shard(universe, begin, end, out, run_scalar, stop);
    }
    if (end - begin >= kWideMinFaults) {
      return lane_shard<mem::WideWord<8>>(state, universe, begin, end, out,
                                          run_scalar, stop);
    }
    return lane_shard<mem::LaneWord>(state, universe, begin, end, out,
                                     run_scalar, stop);
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
  template <typename W, typename RunScalar>
  bool lane_shard(typename Workload::ShardState& state,
                  std::span<const mem::Fault> universe, std::size_t begin,
                  std::size_t end, CampaignResult& out, RunScalar& run_scalar,
                  const util::StopToken& stop) const {
    mem::PackedFaultRamT<W> packed(opt_.n, opt_.m);
    auto run_batch = [&](mem::PackedFaultRamT<W>& batch) {
      return workload_.run_batch(state, batch);
    };
    return lane_batched_shard(universe, begin, end, packed, out, run_batch,
                              run_scalar, stop);
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
