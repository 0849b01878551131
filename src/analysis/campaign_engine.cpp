#include "analysis/campaign_engine.hpp"

#include <utility>

#include "analysis/campaign_driver.hpp"

namespace prt::analysis {

CampaignEngine::CampaignEngine(core::PrtScheme scheme,
                               const CampaignOptions& opt,
                               const EngineOptions& engine)
    : driver_(detail::make_driver(std::move(scheme), opt, engine)) {}

CampaignEngine::~CampaignEngine() = default;

const core::PrtScheme& CampaignEngine::scheme() const {
  return driver_->workload().scheme();
}

CampaignResult CampaignEngine::run(
    std::span<const mem::Fault> universe) const {
  return driver_->run_stoppable(universe, util::StopToken()).result;
}

CampaignOutcome CampaignEngine::run(std::span<const mem::Fault> universe,
                                    const util::StopToken& stop) const {
  return driver_->run_stoppable(universe, stop);
}

CampaignResult run_prt_campaign(std::span<const mem::Fault> universe,
                                const core::PrtScheme& scheme,
                                const CampaignOptions& opt,
                                const EngineOptions& engine) {
  return CampaignEngine(scheme, opt, engine).run(universe);
}

}  // namespace prt::analysis
