#include "analysis/march_campaign.hpp"

#include <utility>

#include "analysis/campaign_driver.hpp"

namespace prt::analysis {

MarchCampaign::MarchCampaign(march::MarchTest test, const CampaignOptions& opt,
                             const EngineOptions& engine)
    : driver_(detail::make_driver(std::move(test), opt, engine)) {}

MarchCampaign::~MarchCampaign() = default;

const march::MarchTest& MarchCampaign::test() const {
  return driver_->workload().test();
}

CampaignResult MarchCampaign::run(
    std::span<const mem::Fault> universe) const {
  return driver_->run_stoppable(universe, util::StopToken()).result;
}

CampaignOutcome MarchCampaign::run(std::span<const mem::Fault> universe,
                                   const util::StopToken& stop) const {
  return driver_->run_stoppable(universe, stop);
}

CampaignResult run_march_campaign(std::span<const mem::Fault> universe,
                                  march::MarchTest test,
                                  const CampaignOptions& opt,
                                  const EngineOptions& engine) {
  return MarchCampaign(std::move(test), opt, engine).run(universe);
}

}  // namespace prt::analysis
