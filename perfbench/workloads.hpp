// The inputs the bulk workload and the per-layer drive share: the
// ROADMAP's reference universe and the suite's two-axis grid.
#pragma once

#include <vector>

#include "analysis/fault_sim.hpp"
#include "core/prt_engine.hpp"
#include "mem/fault_universe.hpp"

namespace perfbench {

/// The ROADMAP's reference point: van_de_goor_universe(4096), 131052
/// faults, under PRT-ext BOM.
inline constexpr prt::mem::Addr kReferenceN = 4096;

/// m in {1, 4} x n in {256, 1024}: PRT-ext BOM on van de Goor beside
/// PRT-ext WOM over GF(16) on single-cell plus intra-word faults.
[[nodiscard]] inline std::vector<prt::analysis::CampaignOptions> suite_grid() {
  std::vector<prt::analysis::CampaignOptions> grid;
  for (const unsigned m : {1u, 4u}) {
    for (const prt::mem::Addr n : {256u, 1024u}) {
      prt::analysis::CampaignOptions opt;
      opt.n = n;
      opt.m = m;
      grid.push_back(opt);
    }
  }
  return grid;
}

[[nodiscard]] inline std::vector<prt::mem::Fault> suite_universe(
    const prt::analysis::CampaignOptions& opt) {
  if (opt.m == 1) return prt::mem::van_de_goor_universe(opt.n);
  prt::mem::UniverseOptions u;
  u.coupling = false;
  u.bridges = false;
  u.address_decoder = false;
  u.intra_word = true;
  return prt::mem::make_universe(opt.n, opt.m, u);
}

[[nodiscard]] inline prt::core::PrtScheme suite_scheme(
    const prt::analysis::CampaignOptions& opt) {
  return opt.m == 1 ? prt::core::extended_scheme_bom(opt.n)
                    : prt::core::extended_scheme_wom(opt.n, opt.m);
}

}  // namespace perfbench
