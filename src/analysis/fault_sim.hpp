// Fault-simulation campaign driver.
//
// A campaign instantiates one FaultyRam per fault in a universe, runs a
// test algorithm against it, and tallies detection per fault class.
// This is the empirical machinery behind the paper's §3 coverage claim
// and behind every coverage table in bench/.
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
  /// Dispatch tallies: faults that rode a packed lane batch vs the
  /// scalar per-fault path.  packed_faults + scalar_faults ==
  /// overall.total; a fully lane-compatible universe on a packable
  /// workload has scalar_faults == 0 (tests/test_campaign_golden.cpp
  /// asserts exactly that for every universe family it pins).  Both
  /// depend on the workload and the faults only, never on the thread
  /// count, so equality covers them; the parity suites that compare a
  /// campaign against the serial run_campaign (which tallies every
  /// fault scalar) compare verdict fields only.
  std::uint64_t packed_faults = 0;
  std::uint64_t scalar_faults = 0;

  bool operator==(const CampaignResult&) const = default;
};

struct CampaignOptions {
  mem::Addr n = 64;
  unsigned m = 1;
  unsigned ports = 1;
  // Every run starts from an all-zero array (deterministic start; a
  // real power-up state is unknown, but every algorithm under test
  // writes each cell before reading it back, so the fill only pins
  // down the "previous value" seen by first-write transitions).
};

/// The options every campaign type takes (CampaignEngine,
/// MarchCampaign, CampaignSuite; a CampaignRequest carries early_abort
/// and runs on the service's workers).  Packing is a rule, not an
/// option: a packable workload puts every lane-compatible fault on a
/// lane, and the result is bit-identical to the live scalar reference
/// either way (DESIGN.md §17).
struct EngineOptions {
  /// Worker count; 0 means the hardware concurrency
  /// (util::default_worker_count).
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
    case util::StopReason::kStalled:
      // From the run's perspective a watchdog-stalled attempt is a
      // cancellation — the distinction (who pulled the token and why)
      // lives at the service layer, which retries the attempt.
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
/// (the unified driver behind CampaignEngine / MarchCampaign /
/// CampaignSuite, and run_campaign below).  Throws
/// std::invalid_argument — before any worker thread or memory is
/// constructed — unless n >= 1, 1 <= m <= 32 (the SimRam word width)
/// and ports is 1, 2 or 4 (the per-port state arrays).
void validate_campaign_options(const CampaignOptions& opt);

/// Scheme validation for every campaign boundary that runs a PRT scheme
/// (the driver behind CampaignEngine / CampaignSuite / CampaignService,
/// and prt_algorithm's oracle build).  Throws std::invalid_argument,
/// naming the value, unless the field degree equals opt.m (and lies in
/// GF2m's [1, 16]), the scheme has iterations, and every iteration has
/// 1 <= k < opt.n with m * k <= 64 (the oracle's LFSR jump-ahead packs
/// the register into one word), k seeds, non-zero g0 and gk, and every
/// coefficient and seed inside the field.
void validate_prt_scheme(const core::PrtScheme& scheme,
                         const CampaignOptions& opt);

/// Folds batch results produced over contiguous ascending fault-index
/// ranges back into one CampaignResult, in batch order — the merge
/// that makes every parallel campaign path bit-identical to the serial
/// one (every job on the campaign executor folds through this).
[[nodiscard]] CampaignResult merge_results(
    std::span<const CampaignResult> shards);

/// Runs `test` once per fault; each run sees a freshly reset memory
/// with exactly that fault injected.  Serial by construction (the
/// TestAlgorithm may capture mutable state); PRT-scheme campaigns
/// should prefer the oracle-backed, parallel CampaignEngine
/// (analysis/campaign_engine.hpp), which produces identical results.
[[nodiscard]] CampaignResult run_campaign(
    std::span<const mem::Fault> universe, const TestAlgorithm& test,
    const CampaignOptions& opt);

// --- adapters -------------------------------------------------------

/// March test with the standard backgrounds for the memory width.
[[nodiscard]] TestAlgorithm march_algorithm(march::MarchTest test);

/// PRT scheme (all iterations).  The returned algorithm memoizes a
/// PrtOracle per memory size, so even legacy run_campaign call sites
/// derive each scheme's trajectories/golden sequences once per
/// campaign instead of once per fault.  The oracle build validates the
/// scheme against the memory's size and width (validate_prt_scheme).
[[nodiscard]] TestAlgorithm prt_algorithm(core::PrtScheme scheme);

/// PRT scheme truncated to its first `iterations` iterations — the
/// coverage-vs-iterations sweep of the §3 claim.  Throws
/// std::invalid_argument unless 1 <= iterations <= the scheme's
/// iteration count.
[[nodiscard]] TestAlgorithm prt_algorithm_prefix(core::PrtScheme scheme,
                                                 std::size_t iterations);

}  // namespace prt::analysis
