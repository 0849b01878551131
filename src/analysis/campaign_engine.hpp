// Oracle-backed, thread-parallel fault-simulation campaign engine for
// PRT schemes.
//
// run_campaign (fault_sim.hpp) evaluates an arbitrary TestAlgorithm
// serially; this engine is the fast path for the common case where the
// algorithm is a PRT scheme.  Since PR 5 it is a thin facade over the
// generic analysis::CampaignDriver (campaign_driver.hpp) instantiated
// with the PRT workload — MarchCampaign is the same driver with the
// March workload, and CampaignSuite fans one request over a grid of
// configurations on the same machinery:
//
//  * everything a scheme derives from its own structure — trajectory
//    permutations, golden LFSR sequences, expected images, Fin*
//    states, golden MISR signatures, and the compiled core::
//    OpTranscript — is fetched from the process-wide, thread-safe
//    analysis::OracleCache, built exactly once per (scheme, n) and
//    shared read-only by every fault, every worker and every engine;
//  * the fault universe is cut into fixed 2048-fault batches that run
//    on the process-wide worker pool for the thread count and merge in
//    batch order, so the output is bit-identical to the serial
//    reference at any thread count;
//  * each worker owns one FaultyRam and rewinds it with reset(fault) —
//    no allocation, no LFSR re-derivation in the per-fault loop;
//  * for GF(2) bit-oriented campaigns every hot loop is a tight replay
//    of the cached transcript: the scalar fallback runs
//    core::run_prt_transcript (devirtualized FaultyRam) and
//    lane-compatible faults are batched 512 per sweep (64 on a batch
//    tail thinner than 256 faults) onto a bit-packed mem::PackedFaultRamT
//    via run_prt_packed, with early abort composing through per-lane
//    mismatch retirement.
//
// See DESIGN.md §7/§8/§9/§10 and bench/bench_campaign.cpp.
#pragma once

#include <memory>
#include <span>

#include "analysis/fault_sim.hpp"
#include "core/prt_engine.hpp"

namespace prt::analysis {

namespace detail {
class PrtWorkload;
template <typename Workload>
class CampaignDriver;
}  // namespace detail

struct EngineOptions {
  /// Worker count; 0 defers to the PRT_THREADS environment override,
  /// then the hardware concurrency (util::default_worker_count).
  unsigned threads = 0;
  /// Reuse the precomputed PrtOracle per fault.  Turning this off
  /// re-derives the scheme per fault like the legacy path — only
  /// useful as a bench baseline.
  bool use_oracle = true;
  /// Stop each fault's run at the first failing iteration.  Verdicts
  /// (and therefore coverage numbers and escapes) are unchanged;
  /// CampaignResult::ops shrinks.  Composes with `packed`: packed
  /// batches retire lanes as their mismatch latches and stop when the
  /// detected mask saturates, with op accounting still bit-identical
  /// to the scalar early-abort path (core/prt_packed).  Keep off when
  /// the campaign's read/write counts must reflect complete runs.
  bool early_abort = false;
  /// Evaluate lane-compatible faults (single-bit SAF/TF/WDF, the
  /// read-logic kinds, the two-cell CFin/CFid/CFst/bridge kinds, the
  /// decoder kinds, static NPSF neighbourhoods and retention faults)
  /// 512 per sweep (64 on a batch tail thinner than 256 faults) on a
  /// bit-packed mem::PackedFaultRamT (core/prt_packed).  Applies
  /// whenever the campaign word width equals the scheme's field
  /// degree — GF(2) bit-oriented and GF(2^m) word-oriented schemes
  /// alike (the word path rides m bit planes per cell).  Results stay
  /// bit-identical to the all-scalar reference; the rare residue (e.g.
  /// degenerate CFst trigger states, victim bits beyond the word
  /// width) falls back per fault.
  /// Ignored (everything scalar) when the scheme is not packable or
  /// use_oracle is off.
  bool packed = true;
};

class CampaignEngine {
 public:
  /// Fetches the per-(scheme, n) artifacts from OracleCache::global()
  /// (building them on first use).  Throws std::invalid_argument on
  /// malformed options (validate_campaign_options).  Precondition:
  /// opt.n exceeds the scheme's register length k; opt.m equals the
  /// scheme field's m.
  CampaignEngine(core::PrtScheme scheme, const CampaignOptions& opt,
                 const EngineOptions& engine = {});
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  [[nodiscard]] const core::PrtScheme& scheme() const;
  [[nodiscard]] const core::PrtOracle& oracle() const;

  /// Simulates every fault of the universe.  Identical CampaignResult
  /// to run_campaign(universe, prt_algorithm(scheme), opt) regardless
  /// of thread count.  Campaigns with the same thread count share one
  /// process-wide pool, and concurrent runs each wait only for their
  /// own batches.  Must not be called from a task already running on a
  /// campaign pool.
  [[nodiscard]] CampaignResult run(std::span<const mem::Fault> universe) const;

  /// Cancellable run: batches poll `stop` per fault, interrupted
  /// batches are discarded whole, and the outcome carries the merge of
  /// the completed batches plus why the run ended (CampaignOutcome in
  /// fault_sim.hpp).  With a never-stopping token the result is
  /// bit-identical to run().
  [[nodiscard]] CampaignOutcome run(std::span<const mem::Fault> universe,
                                    const util::StopToken& stop) const;

 private:
  std::unique_ptr<detail::CampaignDriver<detail::PrtWorkload>> driver_;
};

/// Convenience: one-shot engine run with default engine options.
[[nodiscard]] CampaignResult run_prt_campaign(
    std::span<const mem::Fault> universe, const core::PrtScheme& scheme,
    const CampaignOptions& opt, const EngineOptions& engine = {});

}  // namespace prt::analysis
