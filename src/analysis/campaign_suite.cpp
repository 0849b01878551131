#include "analysis/campaign_suite.hpp"

#include <optional>
#include <utility>

#include "analysis/campaign_driver.hpp"

namespace prt::analysis {

namespace {

std::string config_label(const CampaignOptions& opt) {
  std::string label = "n=" + std::to_string(opt.n);
  if (opt.m != 1) label += " m=" + std::to_string(opt.m);
  return label;
}

}  // namespace

struct CampaignSuite::Impl {
  // Exactly one of the two workload kinds is set.
  SchemeFactory factory;
  std::optional<march::MarchTest> march_test;
  EngineOptions engine;

  /// The prepare step of configuration `index`'s job: generates the
  /// universe into `faults`, records the workload name and points the
  /// job at a driver built through the same detail::make_driver path
  /// the standalone engines use, so per-configuration behaviour (and
  /// the OracleCache reuse) is identical by construction.
  void prepare(const CampaignOptions& opt, std::size_t index,
               const UniverseGenerator& universe, detail::Job& job,
               std::vector<mem::Fault>& faults, std::string& name) const {
    faults = universe(opt, index);
    job.size = faults.size();
    if (march_test) {
      name = march_test->name;
      job.run = detail::make_driver(*march_test, opt, engine).runner(faults);
      return;
    }
    const core::PrtScheme scheme = factory(opt);
    job.run = detail::make_driver(scheme, opt, engine).runner(faults);
    name = scheme.name;
  }
};

CampaignSuite::CampaignSuite(SchemeFactory factory,
                             const EngineOptions& engine)
    : impl_(std::make_unique<Impl>()) {
  validate_worker_count(engine.threads);
  impl_->factory = std::move(factory);
  impl_->engine = engine;
}

CampaignSuite::CampaignSuite(march::MarchTest test,
                             const EngineOptions& engine)
    : impl_(std::make_unique<Impl>()) {
  validate_worker_count(engine.threads);
  impl_->march_test = std::move(test);
  impl_->engine = engine;
}

CampaignSuite::~CampaignSuite() = default;

SuiteResult CampaignSuite::run(std::span<const CampaignOptions> configs,
                               const UniverseGenerator& universe) const {
  // A default token never stops, so this is exactly the pre-
  // cancellation suite run (every status comes back kComplete).
  return run(configs, universe, util::StopToken());
}

SuiteResult CampaignSuite::run(std::span<const CampaignOptions> configs,
                               const UniverseGenerator& universe,
                               const util::StopToken& stop) const {
  // Every configuration's geometry is validated before any universe is
  // generated or any task scheduled — a malformed grid point fails the
  // whole request up-front instead of mid-flight on a worker.
  for (const CampaignOptions& opt : configs) validate_campaign_options(opt);

  // One executor job per configuration.  Its first pool task
  // generates the universe and builds the driver (skipped, with 0
  // batches reported, when the stop pre-empts it), then its fixed
  // batches queue behind every configuration's prepare step, so small
  // configurations interleave with big ones.  Each job merges its own
  // batches in batch order, so each result is bit-identical to a
  // standalone run.  The prepare steps write only their own slots of
  // `universes` / `names`, read once run_jobs returned.
  const std::size_t count = configs.size();
  std::vector<std::vector<mem::Fault>> universes(count);
  std::vector<std::string> names(count);
  std::vector<std::shared_ptr<detail::Job>> jobs;
  jobs.reserve(count);
  for (std::size_t c = 0; c < count; ++c) {
    auto job = std::make_shared<detail::Job>(stop);
    job->prepare = [&, c](detail::Job& j) {
      impl_->prepare(configs[c], c, universe, j, universes[c], names[c]);
    };
    jobs.push_back(std::move(job));
  }
  std::vector<CampaignOutcome> outcomes =
      detail::run_jobs(impl_->engine.threads, jobs);

  SuiteResult out;
  out.configs.reserve(count);
  bool all_complete = true;
  for (std::size_t c = 0; c < count; ++c) {
    SuiteConfigResult entry;
    entry.options = configs[c];
    entry.workload = std::move(names[c]);
    entry.faults = universes[c].size();
    entry.result = std::move(outcomes[c].result);
    entry.status = outcomes[c].status;
    entry.shards_done = outcomes[c].shards_done;
    entry.shards_total = outcomes[c].shards_total;
    all_complete = all_complete && entry.status == RunStatus::kComplete;
    for (const auto& [cls, cov] : entry.result.by_class) {
      auto& acc = out.by_class[cls];
      acc.detected += cov.detected;
      acc.total += cov.total;
    }
    out.overall.detected += entry.result.overall.detected;
    out.overall.total += entry.result.overall.total;
    out.ops += entry.result.ops;
    out.configs.push_back(std::move(entry));
  }
  out.status =
      all_complete ? RunStatus::kComplete : status_from(stop.reason());
  return out;
}

Table SuiteResult::table() const {
  Table table({"config", "workload", "faults", "detected", "total",
               "coverage %", "ops"});
  table.set_align(0, Align::kLeft);
  table.set_align(1, Align::kLeft);
  for (const SuiteConfigResult& entry : configs) {
    table.add(config_label(entry.options), entry.workload, entry.faults,
              entry.result.overall.detected, entry.result.overall.total,
              entry.result.overall.percent(), entry.result.ops);
  }
  table.add("TOTAL", "", overall.total, overall.detected, overall.total,
            overall.percent(), ops);
  return table;
}

SuiteResult run_prt_suite(std::span<const CampaignOptions> configs,
                          SchemeFactory factory,
                          const UniverseGenerator& universe,
                          const EngineOptions& engine) {
  return CampaignSuite(std::move(factory), engine).run(configs, universe);
}

SuiteResult run_march_suite(std::span<const CampaignOptions> configs,
                            march::MarchTest test,
                            const UniverseGenerator& universe,
                            const EngineOptions& engine) {
  return CampaignSuite(std::move(test), engine).run(configs, universe);
}

}  // namespace prt::analysis
