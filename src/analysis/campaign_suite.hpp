// Sharded multi-configuration campaign suite.
//
// The paper's coverage and cost claims are sweeps — coverage vs.
// memory size and word width — but one CampaignEngine evaluates
// exactly one (n, m) point.  CampaignSuite fans a single request out
// over a whole grid of configurations:
//
//  * one workload (a PRT scheme *factory*, since schemes are sized per
//    n, or one March test) plus a list of CampaignOptions and a
//    universe *generator* called once per configuration;
//  * every configuration is one job on the campaign executor
//    (campaign_shard.hpp): its first pool task generates the universe
//    and fetches the golden transcript from the shared
//    analysis::OracleCache (so repeated sweeps recompile nothing),
//    then its fixed 2048-fault batches queue behind every
//    configuration's setup on the process-wide pool for the thread
//    count, so small configurations never serialize behind big ones;
//  * per-configuration batch results are merged in batch order, so
//    each configuration's CampaignResult is bit-identical to a
//    standalone CampaignEngine / MarchCampaign run over the same
//    universe, at any thread count (pinned by
//    tests/test_campaign_suite.cpp);
//  * the merged SuiteResult additionally carries the aggregate
//    coverage/ops rollup and renders the per-configuration coverage
//    table.
//
// See DESIGN.md §10 for the measured speedup over running the same
// grid as sequential engines; the suite row of
// tests/test_campaign_golden.cpp pins both shapes to the live
// reference.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/march_campaign.hpp"
#include "util/table.hpp"

namespace prt::analysis {

/// Builds the fault universe for one configuration; `index` is the
/// configuration's position in the requested grid, so callers with
/// pre-generated universes can return theirs directly instead of
/// reverse-matching options.  Called once per configuration, possibly
/// concurrently from pool workers (must be safe to call concurrently
/// with distinct arguments).
using UniverseGenerator = std::function<std::vector<mem::Fault>(
    const CampaignOptions&, std::size_t index)>;

/// Builds the PRT scheme for one configuration (schemes are sized per
/// n / m, e.g. core::extended_scheme_bom).  Same concurrency contract
/// as UniverseGenerator.
using SchemeFactory =
    std::function<core::PrtScheme(const CampaignOptions&)>;

/// One configuration's outcome inside a SuiteResult.
struct SuiteConfigResult {
  CampaignOptions options;
  /// Workload display name (scheme name / March test name).
  std::string workload;
  /// Universe size the generator produced for this configuration.
  std::size_t faults = 0;
  /// Bit-identical to a standalone engine run over the same universe.
  /// On a stopped run this is the exact tally over the configuration's
  /// completed batches only (interrupted batches are discarded whole).
  CampaignResult result;
  /// kComplete when every batch of this configuration finished; the
  /// stop cause otherwise.  A configuration the stop pre-empted before
  /// its universe was even generated reports 0 batches.
  RunStatus status = RunStatus::kComplete;
  std::size_t shards_done = 0;
  std::size_t shards_total = 0;
};

/// Merged outcome of a suite run: per-configuration results in request
/// order plus the aggregate coverage/ops rollup.
struct SuiteResult {
  std::vector<SuiteConfigResult> configs;
  /// kComplete when every configuration completed; the stop cause
  /// otherwise (the per-configuration statuses say which results are
  /// partial).
  RunStatus status = RunStatus::kComplete;
  /// Coverage summed over every configuration, per fault class and
  /// overall (escape indices stay per-configuration — they index each
  /// configuration's own universe).
  std::map<mem::FaultClass, ClassCoverage> by_class;
  ClassCoverage overall;
  /// Memory operations summed over every configuration's runs.
  std::uint64_t ops = 0;

  /// Renders the per-configuration coverage/ops table (one row per
  /// configuration plus the aggregate row).
  [[nodiscard]] Table table() const;
};

class CampaignSuite {
 public:
  /// PRT suite: `factory` is invoked once per configuration to size
  /// the scheme.  Engine options apply to every configuration
  /// (threads picks the shared pool).  Both constructors throw
  /// std::invalid_argument naming the value on a worker count above
  /// kMaxWorkers (validate_worker_count).
  CampaignSuite(SchemeFactory factory, const EngineOptions& engine = {});
  /// March suite: one test drives every configuration.
  CampaignSuite(march::MarchTest test, const EngineOptions& engine = {});
  ~CampaignSuite();
  CampaignSuite(const CampaignSuite&) = delete;
  CampaignSuite& operator=(const CampaignSuite&) = delete;

  /// Runs every configuration's campaign, one executor job each.
  /// Throws std::invalid_argument on any malformed configuration
  /// (validate_campaign_options, checked up-front for every
  /// configuration before any work is scheduled) or scheme
  /// (core::validate_prt_scheme, when the configuration's job builds
  /// its driver); a failure on a worker is rethrown here.  Same pool
  /// contract as CampaignEngine::run: the pool is shared per thread
  /// count, and run() must not be called from a task already running
  /// on a campaign pool.
  [[nodiscard]] SuiteResult run(std::span<const CampaignOptions> configs,
                                const UniverseGenerator& universe) const;

  /// Cancellable suite run: every batch polls `stop`, interrupted
  /// batches are discarded whole, and each configuration's result is
  /// the exact merge of its completed batches (statuses on the config
  /// entries and the SuiteResult say what was cut short).  With a
  /// never-stopping token the result is bit-identical to run().
  [[nodiscard]] SuiteResult run(std::span<const CampaignOptions> configs,
                                const UniverseGenerator& universe,
                                const util::StopToken& stop) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: one-shot PRT suite run.
[[nodiscard]] SuiteResult run_prt_suite(
    std::span<const CampaignOptions> configs, SchemeFactory factory,
    const UniverseGenerator& universe, const EngineOptions& engine = {});

/// Convenience: one-shot March suite run.
[[nodiscard]] SuiteResult run_march_suite(
    std::span<const CampaignOptions> configs, march::MarchTest test,
    const UniverseGenerator& universe, const EngineOptions& engine = {});

}  // namespace prt::analysis
