// Head-to-head: pseudo-ring testing vs the March family.
//
// Runs a fault-simulation campaign over the classical and full fault
// universes and prints coverage and operation cost per algorithm —
// the practical trade-off the paper's §3 argues (O(3n) per iteration,
// 3 iterations for the targeted universe).
//
//   $ ./march_vs_prt [n]        (default n = 48)
#include <cstdio>
#include <string>

#include "analysis/campaign_engine.hpp"
#include "analysis/coverage.hpp"
#include "analysis/march_campaign.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "mem/sram.hpp"
#include "parse_args.hpp"

int main(int argc, char** argv) {
  using namespace prt;
  // n >= 3 keeps every scheme's k = 2 below n; the cap bounds the
  // O(n) universe and the O(n^2) campaigns.
  unsigned long arg = 48;
  if (argc > 1 && !examples::parse_unsigned(argv[1], 3, 1UL << 16, arg)) {
    std::fprintf(stderr, "usage: %s [n]   (3 <= n <= 2^16)\n", argv[0]);
    return 2;
  }
  const auto n = static_cast<mem::Addr>(arg);

  // Universe: every single-cell fault, adjacent coupling, decoder
  // faults — the realistic local-defect model.
  std::vector<mem::Fault> universe = mem::single_cell_universe(n, 1, true);
  for (mem::Addr c = 0; c + 1 < n; ++c) {
    for (auto [a, v] :
         {std::pair<mem::Addr, mem::Addr>{c, c + 1}, {c + 1, c}}) {
      universe.push_back(mem::Fault::cf_in({v, 0}, {a, 0}));
      universe.push_back(mem::Fault::cf_st({v, 0}, {a, 0}, 1, 0));
      universe.push_back(mem::Fault::cf_id({v, 0}, {a, 0}, true, 1));
    }
    universe.push_back(mem::Fault::bridge({c, 0}, {c + 1, 0}, true));
  }
  for (mem::Addr a = 0; a < n; ++a) {
    universe.push_back(mem::Fault::af_no_access(a));
    universe.push_back(
        mem::Fault::af_wrong_access(a, a + 1 < n ? a + 1 : n - 2));
  }
  std::printf("universe: %zu faults over n = %u cells\n\n", universe.size(),
              n);

  analysis::CampaignOptions opt;
  opt.n = n;

  std::vector<analysis::NamedResult> rows;
  Table cost({"algorithm", "ops", "ops/cell"});
  cost.set_align(0, Align::kLeft);
  auto add = [&](std::string name, analysis::CampaignResult result,
                 std::uint64_t ops) {
    cost.add(name, ops, format_fixed(static_cast<double>(ops) / n, 1));
    rows.push_back({std::move(name), std::move(result)});
  };
  add("PRT-3 (9n)",
      analysis::run_prt_campaign(universe, core::standard_scheme_bom(n), opt),
      core::prt_ops(n, 2, 3));
  // The extended scheme's op count comes from a probe run on a healthy
  // memory.
  const core::PrtScheme extended = core::extended_scheme_bom(n);
  mem::SimRam probe(n, 1);
  add("PRT-ext", analysis::run_prt_campaign(universe, extended, opt),
      core::run_prt(probe, extended).ops());
  for (const auto& m :
       {march::mats_plus(), march::march_y(), march::march_c_minus(),
        march::march_ss()}) {
    add(m.name + " (" + std::to_string(m.ops_per_cell()) + "n)",
        analysis::run_march_campaign(universe, m, opt), m.total_ops(n));
  }

  std::printf("%s\n", analysis::coverage_table(rows).str().c_str());
  std::printf("%s\n", cost.str().c_str());
  return 0;
}
