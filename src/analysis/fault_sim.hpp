// Fault-simulation campaign types and the live scalar reference.
//
// CampaignResult, CampaignOptions and EngineOptions are shared by every
// campaign surface (CampaignEngine, MarchCampaign, CampaignSuite,
// CampaignService); the engines fill the paper's coverage tables in
// bench/.  run_campaign runs one FaultyRam per fault of a universe
// against a test algorithm and tallies detection per fault class — the
// serial reference every engine is checked against.  The engines never
// run it: every fault rides a packed lane (DESIGN.md §20), and
// fault_sim.cpp is the one file in analysis/ the lint wall lets name
// FaultyRam, run_prt or run_march (scripts/run_lint.py).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/prt_engine.hpp"
#include "march/march_runner.hpp"
#include "mem/fault_injector.hpp"
#include "util/stop_token.hpp"

namespace prt::analysis {

/// A test algorithm under evaluation: runs against the (faulty) memory
/// and returns true when it flags the memory as bad.
using TestAlgorithm = std::function<bool(mem::Memory&)>;

struct ClassCoverage {
  std::uint64_t detected = 0;
  std::uint64_t total = 0;
  [[nodiscard]] double percent() const {
    return total == 0 ? 100.0 : 100.0 * static_cast<double>(detected) /
                                    static_cast<double>(total);
  }
  bool operator==(const ClassCoverage&) const = default;
};

struct CampaignResult {
  std::map<mem::FaultClass, ClassCoverage> by_class;
  ClassCoverage overall;
  /// Indices (into the universe) of undetected faults, for debugging
  /// and for the TDB search.
  std::vector<std::size_t> escapes;
  /// Memory operations (reads + writes) the test issued summed over
  /// every fault's run — the campaign-level cost figure early-abort
  /// shrinks (analysis/campaign_engine).
  std::uint64_t ops = 0;

  bool operator==(const CampaignResult&) const = default;
};

struct CampaignOptions {
  mem::Addr n = 64;
  unsigned m = 1;
  // Every run starts from an all-zero array (deterministic start; a
  // real power-up state is unknown, but every algorithm under test
  // writes each cell before reading it back, so the fill only pins
  // down the "previous value" seen by first-write transitions).
};

/// The options every campaign type takes (CampaignEngine,
/// MarchCampaign, CampaignSuite; a CampaignRequest carries early_abort
/// and runs on the service's workers).  Packing is not an option:
/// every fault rides a lane, and the result is bit-identical to the
/// live scalar reference (DESIGN.md §20).
struct EngineOptions {
  /// Worker count; 0 means the hardware concurrency
  /// (util::default_worker_count).  At most kMaxWorkers
  /// (validate_worker_count).
  unsigned threads = 0;
  /// Stop each fault's run at its first failure: the first failing PRT
  /// iteration, or the first mismatching March read (skipping the
  /// remaining backgrounds).  Verdicts, coverage and escapes are
  /// unchanged; CampaignResult::ops shrinks to the abort-aware
  /// reference cost (packed lanes retire as their mismatch latches,
  /// with analytic per-lane op accounting).  Keep off when the ops
  /// must reflect complete runs.
  bool early_abort = false;
};

/// How a stoppable campaign run ended.  kComplete means every batch
/// ran to completion — even if a stop arrived after the last batch
/// finished, the result covers the whole universe and is bit-identical
/// to an uninterrupted run.
enum class RunStatus : std::uint8_t {
  kComplete,
  kCancelled,
  kDeadlineExpired,
};

[[nodiscard]] constexpr RunStatus status_from(util::StopReason reason) {
  switch (reason) {
    case util::StopReason::kCancelled:
      return RunStatus::kCancelled;
    case util::StopReason::kDeadline:
      return RunStatus::kDeadlineExpired;
    case util::StopReason::kNone:
      break;
  }
  return RunStatus::kComplete;
}

/// Outcome of a stoppable campaign run: the merge of every batch that
/// completed before the stop was observed.  Interrupted batches are
/// discarded whole — `result` is always an exact tally over the union
/// of the completed batches' (contiguous, ascending) index ranges, so
/// a partial result is trustworthy for the faults it covers and
/// `escapes` stays ascending.  shards_done / shards_total count fixed
/// 2048-fault batches: shards_total is ceil(universe size / 2048) at
/// every thread count (analysis/campaign_shard.hpp).
struct CampaignOutcome {
  RunStatus status = RunStatus::kComplete;
  CampaignResult result;
  std::size_t shards_done = 0;
  std::size_t shards_total = 0;
};

/// Central geometry validation, shared by every campaign entry point
/// (the one driver behind CampaignEngine / MarchCampaign /
/// CampaignSuite / CampaignService, and run_campaign below).  Throws
/// std::invalid_argument — before any worker thread or memory is
/// constructed — unless n >= 1 and 1 <= m <= 32 (the SimRam word
/// width).  Schemes are checked by core::validate_prt_scheme
/// (core/prt_engine.hpp).
void validate_campaign_options(const CampaignOptions& opt);

/// Most workers a campaign surface runs on (EngineOptions::threads,
/// ServiceOptions::threads).  A fixed ceiling, far above the core
/// counts a campaign scales to: each worker is an OS thread of the
/// process-wide pool for that count (util::shared_pool), kept until
/// exit.
inline constexpr unsigned kMaxWorkers = 256;

/// The worker-count rule every campaign surface applies (the driver
/// construction behind CampaignEngine / MarchCampaign, the CampaignSuite
/// and CampaignService constructors) before any pool exists.  Throws
/// std::invalid_argument naming the value when threads > kMaxWorkers; 0
/// (the hardware concurrency) passes.
void validate_worker_count(unsigned threads);

/// Folds batch results produced over contiguous ascending fault-index
/// ranges back into one CampaignResult, in batch order — the merge
/// that makes every parallel campaign path bit-identical to the serial
/// one (every job on the campaign executor folds through this).
[[nodiscard]] CampaignResult merge_results(
    std::span<const CampaignResult> shards);

/// The live scalar reference: runs `test` once per fault, each run on
/// a freshly reset memory with exactly that fault injected.  Serial by
/// construction (the TestAlgorithm may capture mutable state).  Every
/// coverage table runs on CampaignEngine / MarchCampaign
/// (run_prt_campaign, run_march_campaign); this loop and the adapters
/// below stay as the yardstick the tests, the fuzzer and perfbench's
/// bulk check compare those engines against.
[[nodiscard]] CampaignResult run_campaign(
    std::span<const mem::Fault> universe, const TestAlgorithm& test,
    const CampaignOptions& opt);

// --- adapters -------------------------------------------------------

/// March test with the standard backgrounds for the memory width.
[[nodiscard]] TestAlgorithm march_algorithm(march::MarchTest test);

/// PRT scheme (all iterations).  The returned algorithm memoizes a
/// PrtOracle per memory size, so a run_campaign call derives each
/// scheme's trajectories/golden sequences once per campaign instead of
/// once per fault.  The oracle build validates the scheme against the
/// memory's size and width (core::validate_prt_scheme).  For a prefix
/// of the scheme, truncate `scheme.iterations` first.
[[nodiscard]] TestAlgorithm prt_algorithm(core::PrtScheme scheme);

}  // namespace prt::analysis
