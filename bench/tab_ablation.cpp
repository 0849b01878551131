// Ablation study for the reconstructed extended scheme's design
// choices (DESIGN.md §6):
//  * verify passes — with the full edge schedule in place their
//    remaining load-bearing role is decoder multi-access aliasing
//    (self-healing within a sweep, visible only to a read-only pass);
//  * random-trajectory iterations — decorrelate aliasing distances
//    that resonate with the short background periods;
//  * MISR read-stream compaction on the plain 3-iteration scheme —
//    closes the RDF gap (it absorbs the window read the two-term
//    feedback discards) and nothing else: lasting corruptions are
//    never read, so no compaction can observe them.
#include <cstdio>

#include "analysis/campaign_engine.hpp"
#include "analysis/coverage.hpp"
#include "mem/fault_universe.hpp"

namespace {

using namespace prt;
using analysis::CampaignOptions;
using analysis::run_prt_campaign;

core::PrtScheme without_verify(core::PrtScheme s) {
  for (auto& it : s.iterations) it.config.verify_pass = false;
  s.name += " -verify";
  return s;
}

core::PrtScheme without_random(core::PrtScheme s) {
  std::erase_if(s.iterations, [](const core::SchemeIteration& it) {
    return it.config.trajectory == core::TrajectoryKind::kRandom;
  });
  s.name += " -random";
  return s;
}

void print_tables() {
  const mem::Addr n = 64;
  const auto universe = mem::van_de_goor_universe(n);
  CampaignOptions opt;
  opt.n = n;

  std::printf("== extended-scheme ablation (full model, n = %u) ==\n", n);
  std::vector<analysis::NamedResult> rows;
  const core::PrtScheme full = core::extended_scheme_bom(n);
  rows.push_back({"full", run_prt_campaign(universe, full, opt)});
  rows.push_back(
      {"-verify", run_prt_campaign(universe, without_verify(full), opt)});
  rows.push_back(
      {"-random", run_prt_campaign(universe, without_random(full), opt)});
  rows.push_back(
      {"-both", run_prt_campaign(universe,
                                 without_random(without_verify(full)), opt)});
  std::printf("%s\n", analysis::coverage_table(rows).str().c_str());

  std::printf("== MISR vs Init/Fin observation (3-iteration scheme) ==\n");
  core::PrtScheme misr_scheme = core::standard_scheme_bom(n);
  misr_scheme.misr_poly = 0b1000011;  // degree-6 primitive
  std::vector<analysis::NamedResult> rows2;
  rows2.push_back(
      {"Fin only",
       run_prt_campaign(universe, core::standard_scheme_bom(n), opt)});
  rows2.push_back({"Fin + MISR", run_prt_campaign(universe, misr_scheme, opt)});
  std::printf("%s", analysis::coverage_table(rows2).str().c_str());
  std::printf(
      "\nthe MISR closes exactly one gap: read-logic faults (RDF) whose\n"
      "flipped read value the two-term feedback discards — the MISR\n"
      "absorbs every read, including the discarded one.  Lasting\n"
      "corruptions (CFid windows, AF-multi, CFst residue) move not at\n"
      "all: they were never read, so no compaction can see them; those\n"
      "need the read-only verify pass.\n\n");
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
