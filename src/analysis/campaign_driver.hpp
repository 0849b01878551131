// The one generic campaign driver both public campaign types are
// instances of.
//
// CampaignEngine (PRT schemes) and MarchCampaign (March tests) used to
// each own a copy of the same machinery: option plumbing, oracle /
// transcript construction, the scalar-vs-lane-batched shard loop and
// the packed-enabled predicate.  This header collapses that shape into
// one core:
//
//   CampaignDriver<Workload>  — run_stoppable() as one job on the
//     campaign executor and the per-batch scalar/packed dispatch with
//     its lane-width rule, written once over the campaign_shard.hpp
//     loops;
//   PrtWorkload / MarchWorkload — the only parts that differ: how the
//     golden artifacts are fetched from the analysis::OracleCache, how
//     one fault runs scalar, how one lane batch runs packed, and
//     whether the workload is lane-packable at all.
//
// The public classes in campaign_engine.hpp / march_campaign.hpp are
// thin facades over a driver instance; their results are bit-identical
// to what the pre-unification engines produced (the parity suites in
// tests/ pin this).  CampaignSuite and CampaignService run the same
// drivers as jobs on the same executor (batch_runner below).
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

/// The engine-option shape shared by every campaign type.
/// EngineOptions / MarchEngineOptions translate into this in
/// make_driver (their workload-specific knobs live in the workload).
struct DriverOptions {
  /// Worker count; 0 defers to the PRT_THREADS environment override,
  /// then the hardware concurrency (util::default_worker_count).
  unsigned threads = 0;
  /// Batch lane-compatible faults one lane-word sweep at a time on a
  /// bit-packed mem::PackedFaultRamT when the workload permits
  /// (Workload::packable()).  Results stay bit-identical to the
  /// all-scalar path.
  bool packed = true;
  /// Stop each fault's run at its first failure.  Verdicts, coverage
  /// and escapes are unchanged; CampaignResult::ops shrinks to the
  /// abort-aware scalar reference cost (packed lanes retire with
  /// analytic per-lane op accounting).
  bool early_abort = false;
};

/// Fewest faults a shard range needs to run on the 512-lane word; a
/// thinner range runs the 64-lane word, where a wide sweep would burn
/// whole-word XORs on mostly empty lanes.
inline constexpr std::size_t kWideMinFaults = 256;

/// PRT-scheme workload: golden artifacts from OracleCache::prt, scalar
/// runs over the transcript replay (GF(2)) or the live oracle path,
/// packed batches over core::run_prt_packed.
class PrtWorkload {
 public:
  /// `use_oracle` off re-derives the scheme per fault like the legacy
  /// path (bench baseline only).  Throws std::invalid_argument on
  /// malformed `opt` (validate_campaign_options).
  PrtWorkload(core::PrtScheme scheme, const CampaignOptions& opt,
              bool early_abort, bool use_oracle, OracleCache& cache)
      : scheme_(std::move(scheme)),
        early_abort_(early_abort),
        use_oracle_(use_oracle) {
    validate_campaign_options(opt);
    entry_ = cache.prt(scheme_, opt.n);
    // Lane batching needs the campaign word width to equal the
    // scheme's field degree: the packed ram then carries one bit plane
    // per field bit and the transcript's tap matrices line up.
    packable_ = entry_->packable && entry_->transcript.width == opt.m;
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

  /// Lane batching permitted: oracle-backed runs whose word width
  /// matches the scheme's field degree (GF(2) and GF(2^m) alike).
  [[nodiscard]] bool packable() const { return use_oracle_ && packable_; }

  /// Runs one fault scalar; returns detected, charges its ops.
  bool run_fault(ShardState& s, const mem::Fault& fault,
                 std::uint64_t& ops) const {
    s.ram.reset(fault);
    const core::PrtRunOptions run{.early_abort = early_abort_,
                                  .record_iterations = false};
    // Oracle-backed packable runs replay the compiled transcript (no
    // oracle indirection, FaultyRam devirtualized); other
    // configurations keep the live paths.
    const bool detected =
        use_oracle_ && packable_
            ? core::run_prt_transcript(s.ram, entry_->transcript, run)
                  .detected()
        : use_oracle_
            ? core::run_prt(s.ram, scheme_, entry_->oracle, run).detected()
            : core::run_prt(s.ram, scheme_).detected();
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
  bool use_oracle_;
  bool packable_ = false;
};

/// March-test workload: transcript from OracleCache::march when the
/// campaign is bit-oriented, the live background sweep otherwise.
class MarchWorkload {
 public:
  /// Throws std::invalid_argument on malformed `opt` and on March
  /// tests whose data indices fall outside the {0, 1} notation (a
  /// data index the background expansion cannot represent).
  MarchWorkload(march::MarchTest test, const CampaignOptions& opt,
                bool early_abort, OracleCache& cache)
      : test_(std::move(test)),
        early_abort_(early_abort),
        bit_oriented_(opt.m == 1) {
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
    // covers the whole background set march_algorithm runs.
    if (bit_oriented_) {
      entry_ = cache.march(test_, opt.n, /*background=*/false);
    }
  }

  struct ShardState {
    explicit ShardState(const CampaignOptions& opt)
        : ram(opt.n, opt.m, opt.ports) {}
    mem::FaultyRam ram;
  };

  [[nodiscard]] bool packable() const { return bit_oriented_; }

  bool run_fault(ShardState& s, const mem::Fault& fault,
                 std::uint64_t& ops) const {
    s.ram.reset(fault);
    const march::MarchRunOptions run{.early_abort = early_abort_};
    // m = 1 replays the compiled transcript (devirtualized FaultyRam,
    // no element/op re-derivation); wider words sweep the live
    // background set.
    const bool detected =
        bit_oriented_
            ? march::run_march_transcript(s.ram, entry_->transcript, run).fail
            : march::run_march_backgrounds(test_, s.ram, backgrounds_, run)
                  .fail;
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
  bool bit_oriented_;
};

/// The generic driver: one executor job per run, per-batch
/// scalar/packed dispatch.
/// Workload supplies the four campaign-type-specific hooks
/// (ShardState, packable, run_fault, run_batch).  Holds no mutable
/// state, so concurrent runs on one driver are independent.
template <typename Workload>
class CampaignDriver {
 public:
  CampaignDriver(Workload workload, const CampaignOptions& opt,
                 const DriverOptions& drv)
      : workload_(std::move(workload)), opt_(opt), drv_(drv) {}

  CampaignDriver(const CampaignDriver&) = delete;
  CampaignDriver& operator=(const CampaignDriver&) = delete;

  /// True when runs may route lane-compatible faults through the
  /// packed path (workload + options both allow it).
  [[nodiscard]] bool packed_enabled() const {
    return drv_.packed && workload_.packable();
  }

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
    if (packed_enabled() && end - begin >= kWideMinFaults) {
      return run_shard_impl<mem::WideWord<8>>(universe, begin, end, out,
                                              stop);
    }
    return run_shard_impl<mem::LaneWord>(universe, begin, end, out, stop);
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
    return run_jobs(drv_.threads, {job}).front();
  }

  [[nodiscard]] const Workload& workload() const { return workload_; }

 private:
  /// The width-concrete shard loop behind run_shard's dispatch.
  template <typename W>
  bool run_shard_impl(std::span<const mem::Fault> universe, std::size_t begin,
                      std::size_t end, CampaignResult& out,
                      const util::StopToken& stop) const {
    typename Workload::ShardState state(opt_);
    auto run_scalar = [&](std::size_t i) {
      return workload_.run_fault(state, universe[i], out.ops);
    };
    if (!packed_enabled()) {
      return scalar_shard(universe, begin, end, out, run_scalar, stop);
    }
    mem::PackedFaultRamT<W> packed(opt_.n, opt_.m);
    auto run_batch = [&](mem::PackedFaultRamT<W>& batch) {
      return workload_.run_batch(state, batch);
    };
    return lane_batched_shard(universe, begin, end, packed, out, run_batch,
                              run_scalar, stop);
  }

  Workload workload_;
  CampaignOptions opt_;
  DriverOptions drv_;
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
                  engine.use_oracle, OracleCache::global()),
      opt,
      DriverOptions{.threads = engine.threads,
                    .packed = engine.packed,
                    .early_abort = engine.early_abort});
}

[[nodiscard]] inline std::unique_ptr<MarchDriver> make_driver(
    march::MarchTest test, const CampaignOptions& opt,
    const MarchEngineOptions& engine) {
  return std::make_unique<MarchDriver>(
      MarchWorkload(std::move(test), opt, engine.early_abort,
                    OracleCache::global()),
      opt,
      DriverOptions{.threads = engine.threads,
                    .packed = engine.packed,
                    .early_abort = engine.early_abort});
}

}  // namespace prt::analysis::detail
