// The one campaign driver every campaign surface runs on.
//
// A campaign carries only what its packed replay reads: the golden
// core::OpTranscript cached in analysis::OracleCache, early_abort and
// the worker count.  CampaignDriver runs one job on the campaign
// executor per run_stoppable() and, per batch, the width rule: every
// fault rides a lane, 512 per sweep (64 on a batch thinner than
// kWideMinFaults).  A lane batch replays a transcript with PRT
// iterations through core::run_prt_packed_iteration, one iteration at a
// time, and any other transcript (a March sweep) through
// march::run_march_packed — the one place in analysis/ either replay is
// called (scripts/run_lint.py).  Inside a batch, a PRT ram whose lanes
// have mostly latched spills its survivors at an iteration boundary,
// and they resume packed together in a later ram (the spill rule
// below, DESIGN.md §29).
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

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_shard.hpp"
#include "analysis/fault_sim.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_packed.hpp"
#include "march/march_runner.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt::analysis::detail {

/// Fewest faults a shard range needs to run on the 512-lane word; a
/// thinner range runs the 64-lane word, where a wide sweep would burn
/// whole-word XORs on mostly empty lanes.
inline constexpr std::size_t kWideMinFaults = 256;

/// The spill gate: a PRT ram spills its survivors only while the rest
/// of the transcript still issues at least kSpillMinOpsPerLane x kLanes
/// scalar ops per lane (8192 on the 512-lane word, 1024 on the 64-lane
/// one).  A reload costs a fixed amount per lane (its injection and
/// restore), a sweep a fixed amount per access for the whole word, so
/// below the gate the reloads cost more than the sweeps they empty.
/// Measured in DESIGN.md §29; at 16 the paper programs' n = 64
/// campaigns on 512 lanes and PRT-3 below n = 1366 never spill.
inline constexpr std::uint64_t kSpillMinOpsPerLane = 16;

/// The spill rule: after an iteration, a ram of `lanes` lanes that was
/// loaded with `loaded` faults spills its `survivors` undecided lanes
/// when it was loaded more than half full, at most half its lanes
/// survive, its scheduler batch holds more than one ram of faults
/// (`batch_faults`) and the rest of the transcript issues `rest_ops`
/// scalar ops per lane, at least the gate.
[[nodiscard]] constexpr bool spills(unsigned lanes, unsigned loaded,
                                    unsigned survivors,
                                    std::size_t batch_faults,
                                    std::uint64_t rest_ops) {
  return 2 * loaded > lanes && 2 * survivors <= lanes &&
         batch_faults > lanes && rest_ops >= kSpillMinOpsPerLane * lanes;
}

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
      return shard<mem::WideWord<8>>(universe, begin, end, out, stop);
    }
    return shard<mem::LaneWord>(universe, begin, end, out, stop);
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
  /// The one shard loop, over batch [begin, end) at one lane width on
  /// one ram.  The batch's faults load kLanes at a time in index order
  /// and each loaded ram replays.  A March transcript (any transcript
  /// without PRT iterations, even a test with no elements) runs whole
  /// through run_march_packed: its lanes' data stays live across
  /// elements, so they never spill (DESIGN.md §29, §30).  A PRT
  /// transcript runs iteration by iteration; after each iteration a ram
  /// the spill rule fires on settles its latched lanes, saves its
  /// survivors' live state (PackedFaultRamT::save_lane) and queues them
  /// by the iteration they resume at.  Once the batch's first rams have
  /// run, the queue reloads kLanes at a time, lowest iteration first — a
  /// replay from iteration i queues lanes at later iterations only — and
  /// the rule applies again.  Each ram then charges its ops, marks its
  /// verdicts by fault offset and resets; the batch is tallied in index
  /// order at the end.  Every lane is charged what its own latch
  /// charges, so `out` is bit-identical to a replay of every ram from
  /// the start to the end.
  template <typename W>
  bool shard(std::span<const mem::Fault> universe, std::size_t begin,
             std::size_t end, CampaignResult& out,
             const util::StopToken& stop) const {
    using Ram = mem::PackedFaultRamT<W>;
    constexpr unsigned kLanes = Ram::kLanes;
    const core::OpTranscript& t = *transcript_;
    const core::PackedRunOptions options{.early_abort = early_abort_};
    const std::size_t size = end - begin;
    core::PackedScratchT<W> scratch;
    Ram ram(t.n, t.width);
    struct Spilled {
      std::size_t fault;  // offset into the batch
      typename Ram::LaneState state;
    };
    std::vector<std::vector<Spilled>> queued(t.iterations.size());
    std::vector<bool> detected(size);
    std::array<std::size_t, kLanes> fault_of{};  // lane -> batch offset
    // Replays the loaded ram from iteration `first` (a March transcript
    // whole), then charges its ops, marks its verdicts and resets it.
    auto replay_from = [&](std::size_t first) {
      core::PackedVerdictT<W> v;
      if (t.iterations.empty()) {
        v = march::run_march_packed(ram, t, {.early_abort = early_abort_});
      } else {
        const unsigned loaded = ram.lanes_used();
        core::LaneLatch<W> latch(ram.active_mask());
        for (std::size_t i = first; i < t.iterations.size(); ++i) {
          if (core::run_prt_packed_iteration(ram, t, i, options, scratch,
                                             latch)) {
            break;
          }
          const W survivors = latch.pending & ~latch.mismatch;
          if (i + 1 < t.iterations.size() &&
              spills(kLanes, loaded, mem::lane_popcount(survivors), size,
                     t.total_ops() - t.iterations[i].ops_end())) {
            mem::for_each_set_lane(survivors, [&](unsigned lane) {
              const std::size_t f = fault_of[lane];
              queued[i + 1].push_back(
                  {f, ram.save_lane(lane, universe[begin + f])});
            });
            // The survivors leave this latch uncharged; the ram they
            // resume on charges them.
            latch.pending &= ~survivors;
            break;
          }
        }
        v = latch.finish(t.total_ops());
      }
      out.ops += v.scalar_ops;
      mem::for_each_set_lane(v.detected & ram.active_mask(),
                             [&](unsigned lane) {
                               detected[fault_of[lane]] = true;
                             });
      ram.reset();
    };
    for (std::size_t f = 0; f < size; ++f) {
      if (stop.stop_requested()) return false;
      fault_of[ram.add_fault(universe[begin + f])] = f;
      if (ram.lanes_used() == kLanes) replay_from(0);
    }
    if (ram.lanes_used() != 0) replay_from(0);
    for (std::size_t i = 1; i < queued.size(); ++i) {
      for (const Spilled& lane : queued[i]) {
        if (stop.stop_requested()) return false;
        fault_of[ram.add_fault(universe[begin + lane.fault], lane.state)] =
            lane.fault;
        if (ram.lanes_used() == kLanes) replay_from(i);
      }
      if (ram.lanes_used() != 0) replay_from(i);
    }
    for (std::size_t f = 0; f < size; ++f) {
      tally_fault(out, universe, begin + f, detected[f]);
    }
    return true;
  }

  std::shared_ptr<const core::OpTranscript> transcript_;
  bool early_abort_;
  unsigned threads_;
};

/// The one construction path every public campaign surface goes
/// through (CampaignEngine, CampaignSuite, CampaignService): validates
/// the request and fetches its transcript from the shared cache.
/// Throws std::invalid_argument on malformed `opt`, `engine` or
/// `scheme` (validate_campaign_options, validate_worker_count,
/// core::validate_prt_scheme).
[[nodiscard]] inline CampaignDriver make_driver(const core::PrtScheme& scheme,
                                                const CampaignOptions& opt,
                                                const EngineOptions& engine) {
  validate_campaign_options(opt);
  validate_worker_count(engine.threads);
  core::validate_prt_scheme(scheme, opt.n, opt.m);
  return {OracleCache::global().prt(scheme, opt.n), engine};
}

/// March overload: the whole background sweep on the m-bit memory.
/// Throws std::invalid_argument on malformed `opt` or `engine` and on
/// March tests whose data indices fall outside the {0, 1} notation (a
/// data index the background expansion cannot represent).
[[nodiscard]] inline CampaignDriver make_driver(const march::MarchTest& test,
                                                const CampaignOptions& opt,
                                                const EngineOptions& engine) {
  validate_campaign_options(opt);
  validate_worker_count(engine.threads);
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
