#include "analysis/campaign_suite.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/campaign_driver.hpp"

namespace prt::analysis {

namespace {

/// One configuration, prepared for scheduling: the generated universe
/// plus a type-erased shard runner over the configuration's driver.
/// The driver is owned by the closure so PRT and March configurations
/// flow through one schedule.
struct Prepared {
  std::vector<mem::Fault> universe;
  std::string name;
  std::function<bool(std::span<const mem::Fault>, std::size_t, std::size_t,
                     CampaignResult&, const util::StopToken&)>
      run_shard;
};

template <typename Driver>
Prepared prepared_from(std::shared_ptr<Driver> driver,
                       std::vector<mem::Fault> universe, std::string name) {
  Prepared p;
  p.universe = std::move(universe);
  p.name = std::move(name);
  p.run_shard = [driver = std::move(driver)](
                    std::span<const mem::Fault> faults, std::size_t begin,
                    std::size_t end, CampaignResult& out,
                    const util::StopToken& stop) {
    return driver->run_shard(faults, begin, end, out, stop);
  };
  return p;
}

std::string config_label(const CampaignOptions& opt) {
  std::string label = "n=" + std::to_string(opt.n);
  if (opt.m != 1) label += " m=" + std::to_string(opt.m);
  if (opt.ports != 1) label += " ports=" + std::to_string(opt.ports);
  return label;
}

}  // namespace

struct CampaignSuite::Impl {
  // Exactly one of the two workload kinds is set.
  SchemeFactory factory;
  std::optional<march::MarchTest> march_test;
  EngineOptions prt_engine;
  MarchEngineOptions march_engine;

  [[nodiscard]] unsigned threads() const {
    return march_test ? march_engine.threads : prt_engine.threads;
  }
  [[nodiscard]] bool parallel() const {
    return march_test ? march_engine.parallel : prt_engine.parallel;
  }

  /// Generates the universe and builds the driver for one
  /// configuration — through the same detail::make_driver path the
  /// standalone engines use, so per-configuration behaviour (and the
  /// OracleCache reuse) is identical by construction.
  [[nodiscard]] Prepared prepare(const CampaignOptions& opt, std::size_t index,
                                 const UniverseGenerator& universe) const {
    if (march_test) {
      std::shared_ptr<detail::MarchDriver> driver =
          detail::make_driver(*march_test, opt, march_engine);
      std::string name = march_test->name;
      return prepared_from(std::move(driver), universe(opt, index),
                           std::move(name));
    }
    std::shared_ptr<detail::PrtDriver> driver =
        detail::make_driver(factory(opt), opt, prt_engine);
    std::string name = driver->workload().name();
    return prepared_from(std::move(driver), universe(opt, index),
                         std::move(name));
  }
};

CampaignSuite::CampaignSuite(SchemeFactory factory,
                             const EngineOptions& engine)
    : impl_(std::make_unique<Impl>()) {
  impl_->factory = std::move(factory);
  impl_->prt_engine = engine;
}

CampaignSuite::CampaignSuite(march::MarchTest test,
                             const MarchEngineOptions& engine)
    : impl_(std::make_unique<Impl>()) {
  impl_->march_test = std::move(test);
  impl_->march_engine = engine;
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

  const std::size_t count = configs.size();
  const unsigned workers = impl_->threads() != 0
                               ? impl_->threads()
                               : util::default_worker_count();
  const bool parallel = impl_->parallel() && workers > 1;
  // Calls fn(i) for every i in [0, total): inline, or one index per
  // batch on the shared pool, rethrowing the first worker failure.
  auto for_each_index = [&](std::size_t total, auto&& fn) {
    if (!parallel) {
      for (std::size_t i = 0; i < total; ++i) fn(i);
      return;
    }
    (void)util::shared_pool(workers).parallel_for_batches(
        total, 1, [&](std::size_t i, std::size_t, std::size_t) { fn(i); });
  };

  // Fan-out 1: generate every universe and build every driver.  A
  // configuration the stop pre-empts here reports 0 batches.
  std::vector<Prepared> prepared(count);
  std::vector<unsigned char> generated(count, 0);
  for_each_index(count, [&](std::size_t c) {
    if (stop.stop_requested()) return;
    prepared[c] = impl_->prepare(configs[c], c, universe);
    generated[c] = 1;
  });

  // Fan-out 2: every configuration's fixed kSchedulerBatch batches,
  // flattened into one index space — small configurations interleave
  // with big ones instead of waiting for them.  first[c] is the first
  // flattened batch of configuration c.  Batch results merge per
  // configuration in batch order, the same merge the standalone
  // engines use, so each result is bit-identical to a standalone run.
  std::vector<std::size_t> first(count + 1, 0);
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t faults = prepared[c].universe.size();
    first[c + 1] = first[c] + (faults + detail::kSchedulerBatch - 1) /
                                  detail::kSchedulerBatch;
  }
  std::vector<CampaignResult> shards(first[count]);
  // unsigned char, not vector<bool>: each batch writes only its own
  // slot, which bit-packing would turn into a data race.
  std::vector<unsigned char> done(first[count], 0);
  for_each_index(first[count], [&](std::size_t b) {
    const auto c = static_cast<std::size_t>(
        std::upper_bound(first.begin(), first.end(), b) - first.begin() - 1);
    const Prepared& p = prepared[c];
    const std::size_t begin = (b - first[c]) * detail::kSchedulerBatch;
    const std::size_t end =
        std::min(begin + detail::kSchedulerBatch, p.universe.size());
    done[b] = p.run_shard(p.universe, begin, end, shards[b], stop) ? 1 : 0;
  });

  SuiteResult out;
  out.configs.reserve(count);
  bool all_complete = true;
  for (std::size_t c = 0; c < count; ++c) {
    SuiteConfigResult entry;
    entry.options = configs[c];
    entry.workload = prepared[c].name;
    entry.faults = prepared[c].universe.size();
    entry.shards_total = first[c + 1] - first[c];
    std::vector<CampaignResult> completed;
    completed.reserve(entry.shards_total);
    for (std::size_t b = first[c]; b < first[c + 1]; ++b) {
      if (done[b] != 0) completed.push_back(std::move(shards[b]));
    }
    entry.shards_done = completed.size();
    entry.result = merge_results(completed);
    const bool complete =
        generated[c] != 0 && entry.shards_done == entry.shards_total;
    entry.status =
        complete ? RunStatus::kComplete : status_from(stop.reason());
    all_complete = all_complete && complete;
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
                            const MarchEngineOptions& engine) {
  return CampaignSuite(std::move(test), engine).run(configs, universe);
}

}  // namespace prt::analysis
