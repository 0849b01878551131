// Reproduces the §3 coverage claim: "all single and multi-cell memory
// faults are detected in 3 pi-test iterations with a specific TDB".
//
// Two universes are reported (DESIGN.md §2):
//  * the classical model {SAF, TF, adjacent CFin, bridges, AF} — fully
//    covered by the pure 3-iteration scheme, reproducing the claim's
//    shape;
//  * the full van de Goor model (adds WDF, RDF/DRDF/IRF/SOF, CFst,
//    4-variant CFid, multi-access AF) — where 3 pure iterations are
//    provably insufficient (late corruptions are overwritten unread)
//    and the extended scheme with verify passes reaches full coverage.
//
// March baselines (MATS+, March C-, March SS) anchor both tables.
#include <cstdio>

#include "analysis/coverage.hpp"
#include "analysis/campaign_engine.hpp"
#include "analysis/fault_sim.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"

namespace {

using namespace prt;
using analysis::CampaignOptions;
using analysis::run_campaign;

void run_tables() {
  const mem::Addr n = 64;
  CampaignOptions opt;
  opt.n = n;

  {
    std::printf(
        "== §3 claim, classical model (n = %u): coverage vs iterations "
        "==\n",
        n);
    const auto universe = mem::classical_universe(n);
    std::vector<analysis::NamedResult> rows;
    for (unsigned iters = 1; iters <= 3; ++iters) {
      core::PrtScheme prefix = core::standard_scheme_bom(n);
      prefix.iterations.resize(iters);
      rows.push_back({"PRT-" + std::to_string(iters),
                      analysis::run_prt_campaign(universe, prefix, opt)});
    }
    rows.push_back(
        {"MATS+", run_campaign(universe,
                               analysis::march_algorithm(march::mats_plus()),
                               opt)});
    rows.push_back({"March C-",
                    run_campaign(universe,
                                 analysis::march_algorithm(
                                     march::march_c_minus()),
                                 opt)});
    std::printf("%s\n", analysis::coverage_table(rows).str().c_str());
  }

  {
    std::printf(
        "== full van de Goor model (n = %u): 3 pure iterations vs "
        "extended scheme ==\n",
        n);
    const auto universe = mem::van_de_goor_universe(n);
    std::vector<analysis::NamedResult> rows;
    rows.push_back({"PRT-3", analysis::run_prt_campaign(
                                 universe, core::standard_scheme_bom(n), opt)});
    rows.push_back({"PRT-ext",
                    analysis::run_prt_campaign(
                        universe, core::extended_scheme_bom(n), opt)});
    rows.push_back({"March C-",
                    run_campaign(universe,
                                 analysis::march_algorithm(
                                     march::march_c_minus()),
                                 opt)});
    rows.push_back({"March SS",
                    run_campaign(universe,
                                 analysis::march_algorithm(march::march_ss()),
                                 opt)});
    std::printf("%s\n", analysis::coverage_table(rows).str().c_str());
  }

  {
    const unsigned m = 4;
    std::printf(
        "== WOM (n = %u, m = %u, p = z^4+z+1): single-cell + intra-word "
        "==\n",
        n, m);
    mem::UniverseOptions uopt;
    uopt.coupling = false;
    uopt.bridges = false;
    uopt.address_decoder = true;
    uopt.intra_word = true;
    const auto universe = mem::make_universe(n, m, uopt);
    CampaignOptions wopt;
    wopt.n = n;
    wopt.m = m;
    std::vector<analysis::NamedResult> rows;
    rows.push_back({"PRT-3",
                    analysis::run_prt_campaign(
                        universe, core::standard_scheme_wom(n, m), wopt)});
    rows.push_back({"PRT-ext",
                    analysis::run_prt_campaign(
                        universe, core::extended_scheme_wom(n, m), wopt)});
    rows.push_back({"March C-",
                    run_campaign(universe,
                                 analysis::march_algorithm(
                                     march::march_c_minus()),
                                 wopt)});
    std::printf("%s\n", analysis::coverage_table(rows).str().c_str());
  }
}

void run_retention_table() {
  const mem::Addr n = 64;
  std::printf(
      "== data-retention faults (n = %u, decay delay 50k ticks) ==\n", n);
  std::vector<mem::Fault> universe;
  for (mem::Addr c = 0; c < n; ++c) {
    universe.push_back(mem::Fault::retention({c, 0}, 0, 50'000));
    universe.push_back(mem::Fault::retention({c, 0}, 1, 50'000));
  }
  CampaignOptions opt;
  opt.n = n;
  std::vector<analysis::NamedResult> rows;
  rows.push_back(
      {"PRT-3 (no pause)",
       run_campaign(universe,
                    analysis::prt_algorithm(core::standard_scheme_bom(n)),
                    opt)});
  rows.push_back(
      {"PRT retention",
       run_campaign(universe,
                    analysis::prt_algorithm(
                        core::retention_scheme(n, 1, 100'000)),
                    opt)});
  rows.push_back(
      {"March C- (no Del)",
       run_campaign(universe,
                    analysis::march_algorithm(march::march_c_minus()),
                    opt)});
  rows.push_back({"March G (Del=100k)",
                  run_campaign(universe,
                               [](mem::Memory& memory) {
                                 return march::run_march(march::march_g(),
                                                         memory, 0, 100'000)
                                     .fail;
                               },
                               opt)});
  std::printf("%s\n", analysis::coverage_table(rows).str().c_str());
}

}  // namespace

int main() {
  run_tables();
  run_retention_table();
  return 0;
}
