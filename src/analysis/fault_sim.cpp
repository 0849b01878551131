#include "analysis/fault_sim.hpp"

#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace prt::analysis {

void validate_campaign_options(const CampaignOptions& opt) {
  // Every message names the offending value — a service log line must
  // identify the bad request without a debugger.
  if (opt.n < 1) {
    throw std::invalid_argument("CampaignOptions: n must be >= 1 (got " +
                                std::to_string(opt.n) + ")");
  }
  if (opt.m < 1 || opt.m > 32) {
    throw std::invalid_argument("CampaignOptions: m must be in [1, 32] (got " +
                                std::to_string(opt.m) + ")");
  }
  if (opt.ports != 1 && opt.ports != 2 && opt.ports != 4) {
    throw std::invalid_argument(
        "CampaignOptions: ports must be 1, 2 or 4 (got " +
        std::to_string(opt.ports) + ")");
  }
}

CampaignResult merge_results(std::span<const CampaignResult> shards) {
  CampaignResult merged;
  for (const CampaignResult& shard : shards) {
    for (const auto& [cls, cov] : shard.by_class) {
      auto& acc = merged.by_class[cls];
      acc.detected += cov.detected;
      acc.total += cov.total;
    }
    merged.overall.detected += shard.overall.detected;
    merged.overall.total += shard.overall.total;
    merged.ops += shard.ops;
    merged.escapes.insert(merged.escapes.end(), shard.escapes.begin(),
                          shard.escapes.end());
  }
  return merged;
}

CampaignResult run_campaign(std::span<const mem::Fault> universe,
                            const TestAlgorithm& test,
                            const CampaignOptions& opt) {
  validate_campaign_options(opt);
  CampaignResult result;
  // One RAM for the whole campaign, rewound per fault: reset() restores
  // the exact just-constructed all-zero state without reallocating the
  // array.
  mem::FaultyRam ram(opt.n, opt.m, opt.ports);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    ram.reset(universe[i]);
    const bool detected = test(ram);
    result.ops += ram.total_stats().total();
    auto& cls = result.by_class[mem::fault_class(universe[i].kind)];
    ++cls.total;
    ++result.overall.total;
    if (detected) {
      ++cls.detected;
      ++result.overall.detected;
    } else {
      result.escapes.push_back(i);
    }
  }
  return result;
}

TestAlgorithm march_algorithm(march::MarchTest test) {
  return [test = std::move(test)](mem::Memory& memory) {
    const auto bgs = march::standard_backgrounds(memory.width());
    return march::run_march_backgrounds(test, memory, bgs).fail;
  };
}

TestAlgorithm prt_algorithm(core::PrtScheme scheme) {
  // The oracle depends only on (scheme, n), so it is derived lazily on
  // the first memory of each size and reused for every subsequent run —
  // each copy of the returned std::function carries its own cache, so
  // copies stay independent (and a single copy is not thread-safe,
  // matching run_campaign's serial contract).
  return [scheme = std::move(scheme),
          oracles = std::map<mem::Addr, core::PrtOracle>{}](
             mem::Memory& memory) mutable {
    auto it = oracles.find(memory.size());
    if (it == oracles.end()) {
      core::validate_prt_scheme(scheme, memory.size(), memory.width());
      it = oracles.emplace(memory.size(),
                           core::make_prt_oracle(scheme, memory.size()))
               .first;
    }
    const core::PrtRunOptions opts{.early_abort = false,
                                   .record_iterations = false};
    return core::run_prt(memory, scheme, it->second, opts).detected();
  };
}

}  // namespace prt::analysis
