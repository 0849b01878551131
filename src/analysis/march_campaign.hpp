// Lane-batched, thread-parallel March fault-simulation campaigns.
//
// Every March coverage table runs here (the paper programs and the
// examples); run_campaign with march_algorithm (fault_sim.hpp) stays
// only as the serial reference, one FaultyRam run per fault, that it
// is checked against.  It is a thin facade over the generic
// analysis::CampaignDriver (campaign_driver.hpp) instantiated with the
// March workload — the same driver, shared pool, shard loops and
// order-deterministic merge CampaignEngine runs on:
//
//  * the golden March run — every standard data background of the
//    m-bit word in turn, on the same memory — is compiled once per
//    (test, n, m) into a flat core::OpTranscript, cached in the
//    process-wide analysis::OracleCache and shared by every campaign
//    over the same test;
//  * every fault (decoder, NPSF and retention kinds included) rides a
//    lane: faults are batched 512 per sweep (64 on a batch thinner
//    than 256 faults) through march::run_march_packed, on the bit loop
//    at m = 1 and on the word loop (m bit planes per cell) above it.
//    The merged CampaignResult — coverage, per-class counts, escapes
//    and op totals — is bit-identical to run_campaign(universe,
//    march_algorithm(test), opt).  Early abort composes with packing:
//    lanes retire at their first mismatching read with analytic
//    per-lane op accounting identical to the abort-aware scalar
//    reference, across backgrounds.
//
// See DESIGN.md §8/§9/§10/§20 and the March rows of
// tests/test_campaign_golden.cpp.
#pragma once

#include <memory>
#include <span>

#include "analysis/fault_sim.hpp"
#include "march/march_runner.hpp"

namespace prt::analysis {

namespace detail {
class MarchWorkload;
template <typename Workload>
class CampaignDriver;
}  // namespace detail

/// March campaigns take the same EngineOptions as every campaign type;
/// the alias keeps the older spelling compiling (perfbench/ uses it).
using MarchEngineOptions = EngineOptions;

class MarchCampaign {
 public:
  /// Fetches the per-(test, n, m) transcript from
  /// OracleCache::global() (building it on first use).  Throws
  /// std::invalid_argument on malformed options
  /// (validate_campaign_options) and on March tests with data indices
  /// outside {0, 1}.
  MarchCampaign(march::MarchTest test, const CampaignOptions& opt,
                const EngineOptions& engine = {});
  ~MarchCampaign();
  MarchCampaign(const MarchCampaign&) = delete;
  MarchCampaign& operator=(const MarchCampaign&) = delete;

  [[nodiscard]] const march::MarchTest& test() const;

  /// Simulates every fault of the universe.  Identical CampaignResult
  /// to run_campaign(universe, march_algorithm(test), opt) regardless
  /// of thread count.  Same pool contract as CampaignEngine::run: the
  /// pool is shared per thread count, and run() must not be called
  /// from a task already running on a campaign pool.
  [[nodiscard]] CampaignResult run(std::span<const mem::Fault> universe) const;

  /// Cancellable run: batches poll `stop` per fault, interrupted
  /// batches are discarded whole, and the outcome carries the merge of
  /// the completed batches plus why the run ended (CampaignOutcome in
  /// fault_sim.hpp).  With a never-stopping token the result is
  /// bit-identical to run().
  [[nodiscard]] CampaignOutcome run(std::span<const mem::Fault> universe,
                                    const util::StopToken& stop) const;

 private:
  std::unique_ptr<detail::CampaignDriver<detail::MarchWorkload>> driver_;
};

/// Convenience: one-shot March campaign with default engine options.
[[nodiscard]] CampaignResult run_march_campaign(
    std::span<const mem::Fault> universe, march::MarchTest test,
    const CampaignOptions& opt, const EngineOptions& engine = {});

}  // namespace prt::analysis
