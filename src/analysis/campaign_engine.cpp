#include "analysis/campaign_engine.hpp"

#include "analysis/campaign_driver.hpp"
#include "analysis/march_campaign.hpp"

namespace prt::analysis {

CampaignEngine::CampaignEngine(const core::PrtScheme& scheme,
                               const CampaignOptions& opt,
                               const EngineOptions& engine)
    : driver_(std::make_unique<detail::CampaignDriver>(
          detail::make_driver(scheme, opt, engine))) {}

CampaignEngine::CampaignEngine(const march::MarchTest& test,
                               const CampaignOptions& opt,
                               const EngineOptions& engine)
    : driver_(std::make_unique<detail::CampaignDriver>(
          detail::make_driver(test, opt, engine))) {}

CampaignEngine::~CampaignEngine() = default;

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

CampaignResult run_march_campaign(std::span<const mem::Fault> universe,
                                  const march::MarchTest& test,
                                  const CampaignOptions& opt,
                                  const EngineOptions& engine) {
  return CampaignEngine(test, opt, engine).run(universe);
}

}  // namespace prt::analysis
