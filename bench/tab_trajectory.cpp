// Reproduces the §2/§3 trajectory-control claims:
//  * the LFSR trajectory (ascending / descending / random) is a test
//    control factor — measured here as coverage of adjacent coupling
//    faults per trajectory choice;
//  * intra-word faults are tested "by parallel application of a
//    pi-testing for BOM ... with (1) parallel or (2) random
//    trajectories" — both modes are measured on an intra-word fault
//    universe.
#include <cstdio>

#include "analysis/fault_sim.hpp"
#include "core/intra_word.hpp"
#include "mem/fault_universe.hpp"
#include "util/table.hpp"

namespace {

using namespace prt;
using analysis::CampaignOptions;

void print_direction_table() {
  std::printf(
      "== coupling-fault coverage per trajectory (single pi-iteration, "
      "solid-1 background over zeroed array) ==\n");
  const mem::Addr n = 64;
  // Ordered adjacent CFin pairs, both orientations.
  std::vector<mem::Fault> universe;
  for (mem::Addr c = 0; c + 1 < n; ++c) {
    universe.push_back(mem::Fault::cf_in({c, 0}, {c + 1, 0}));
    universe.push_back(mem::Fault::cf_in({c + 1, 0}, {c, 0}));
  }
  CampaignOptions opt;
  opt.n = n;

  Table t({"trajectory", "aggressor = victim+1 %", "aggressor = victim-1 %",
           "total %"});
  t.set_align(0, Align::kLeft);
  for (auto traj :
       {core::TrajectoryKind::kAscending, core::TrajectoryKind::kDescending,
        core::TrajectoryKind::kRandom}) {
    core::PrtScheme s;
    s.field_modulus = 0b11;
    core::SchemeIteration it;
    it.g = {1, 0, 1};
    it.config.init = {1, 1};
    it.config.trajectory = traj;
    it.config.seed = 7;
    s.iterations = {it};
    const auto algo = analysis::prt_algorithm(s);

    std::uint64_t det_up = 0, det_down = 0;
    const std::uint64_t half = universe.size() / 2;
    for (std::size_t i = 0; i < universe.size(); ++i) {
      mem::FaultyRam ram(n, 1);
      ram.inject(universe[i]);
      const bool detected = algo(ram);
      // Even indices: aggressor above victim; odd: below.
      if (detected) (i % 2 == 0 ? det_up : det_down) += 1;
    }
    t.add(core::to_string(traj),
          format_fixed(100.0 * static_cast<double>(det_up) /
                           static_cast<double>(half), 1),
          format_fixed(100.0 * static_cast<double>(det_down) /
                           static_cast<double>(half), 1),
          format_fixed(100.0 * static_cast<double>(det_up + det_down) /
                           static_cast<double>(universe.size()), 1));
  }
  std::printf("%s", t.str().c_str());
  std::printf(
      "\nshape: the within-sweep detection window sits one position\n"
      "*after* the victim, so ascending catches aggressor = victim+1,\n"
      "descending the mirror, and a random permutation splits both at\n"
      "roughly half each (plus boundary windows).\n\n");
}

void print_intra_word_table() {
  std::printf("== §2 intra-word testing: parallel vs random trajectories ==\n");
  const mem::Addr n = 64;
  const unsigned m = 8;
  mem::UniverseOptions uopt;
  uopt.single_cell = false;
  uopt.read_logic = false;
  uopt.coupling = true;
  uopt.bridges = false;
  uopt.address_decoder = false;
  uopt.coupling_pair_limit = 0;  // no inter-cell pairs
  uopt.intra_word = true;
  const auto universe = mem::make_universe(n, m, uopt);

  Table t({"mode", "word ops", "intra-word coverage %"});
  t.set_align(0, Align::kLeft);
  for (auto mode : {core::IntraWordMode::kParallelTrajectories,
                    core::IntraWordMode::kRandomTrajectories}) {
    std::uint64_t detected = 0;
    std::uint64_t ops = 0;
    for (const mem::Fault& f : universe) {
      mem::FaultyRam ram(n, m);
      ram.inject(f);
      core::IntraWordConfig cfg;
      cfg.mode = mode;
      cfg.seed = 5;
      const auto r = core::run_intra_word(ram, cfg);
      detected += r.pass ? 0 : 1;
      ops = r.reads + r.writes;
    }
    t.add(mode == core::IntraWordMode::kParallelTrajectories
              ? "parallel trajectories"
              : "random (independent) trajectories",
          ops,
          format_fixed(100.0 * static_cast<double>(detected) /
                           static_cast<double>(universe.size()), 1));
  }
  std::printf("%s\n", t.str().c_str());
}

}  // namespace

int main() {
  print_direction_table();
  print_intra_word_table();
  return 0;
}
