// Oracle-backed, thread-parallel fault-simulation campaign engine for
// PRT schemes and March tests.
//
// Every campaign runs here: the paper programs' coverage tables, the
// examples and the TDB designer; run_campaign (fault_sim.hpp) stays
// only as the serial reference it is checked against.  The engine is
// a thin facade over the one analysis::CampaignDriver
// (campaign_driver.hpp); MarchCampaign (march_campaign.hpp) is this
// class under its March name, and CampaignSuite fans one request over
// a grid of configurations on the same machinery:
//
//  * the golden run — a PRT scheme's trajectories, golden LFSR
//    sequences, expected images, Fin* states and MISR signatures, or
//    a March test's whole background sweep on the m-bit memory — is
//    compiled once into a core::OpTranscript, fetched from the
//    process-wide, thread-safe analysis::OracleCache and shared
//    read-only by every fault, every worker and every engine;
//  * the fault universe is cut into fixed 2048-fault batches that run
//    on the process-wide worker pool for the thread count and merge in
//    batch order, so the output is bit-identical to the serial
//    reference at any thread count;
//  * every fault rides a lane: faults are batched 512 per sweep (64 on
//    a batch thinner than 256 faults) onto a bit-packed
//    mem::PackedFaultRamT and replay the cached transcript — through
//    run_prt_packed for a scheme (GF(2) and GF(2^m) alike), through
//    run_march_packed for a March test (bit loop at m = 1, word loop
//    above) — with early abort composing through per-lane mismatch
//    retirement.
//
// See DESIGN.md §7/§8/§9/§10/§20/§22; tests/test_campaign_golden.cpp
// pins the engine against the live reference on every universe family.
#pragma once

#include <memory>
#include <span>

#include "analysis/fault_sim.hpp"
#include "core/prt_engine.hpp"
#include "march/march_test.hpp"

namespace prt::analysis {

namespace detail {
class CampaignDriver;
}  // namespace detail

class CampaignEngine {
 public:
  /// PRT campaign.  Fetches the per-(scheme, n) transcript from
  /// OracleCache::global() (building it on first use).  Throws
  /// std::invalid_argument on malformed options or schemes
  /// (validate_campaign_options, core::validate_prt_scheme: n above
  /// every k, m the field's degree).
  CampaignEngine(const core::PrtScheme& scheme, const CampaignOptions& opt,
                 const EngineOptions& engine = {});
  /// March campaign.  Fetches the per-(test, n, m) transcript from
  /// OracleCache::global() (building it on first use).  Throws
  /// std::invalid_argument on malformed options
  /// (validate_campaign_options) and on March tests with data indices
  /// outside {0, 1}.
  CampaignEngine(const march::MarchTest& test, const CampaignOptions& opt,
                 const EngineOptions& engine = {});
  ~CampaignEngine();
  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Simulates every fault of the universe.  Identical CampaignResult
  /// to run_campaign(universe, prt_algorithm(scheme) or
  /// march_algorithm(test), opt) regardless of thread count.
  /// Campaigns with the same thread count share one process-wide pool,
  /// and concurrent runs each wait only for their own batches.  Must
  /// not be called from a task already running on a campaign pool.
  [[nodiscard]] CampaignResult run(std::span<const mem::Fault> universe) const;

  /// Cancellable run: batches poll `stop` per fault, interrupted
  /// batches are discarded whole, and the outcome carries the merge of
  /// the completed batches plus why the run ended (CampaignOutcome in
  /// fault_sim.hpp).  With a never-stopping token the result is
  /// bit-identical to run().
  [[nodiscard]] CampaignOutcome run(std::span<const mem::Fault> universe,
                                    const util::StopToken& stop) const;

 private:
  std::unique_ptr<detail::CampaignDriver> driver_;
};

/// Convenience: one-shot engine run with default engine options.
[[nodiscard]] CampaignResult run_prt_campaign(
    std::span<const mem::Fault> universe, const core::PrtScheme& scheme,
    const CampaignOptions& opt, const EngineOptions& engine = {});

}  // namespace prt::analysis
