// Reproduces the §2/§3 trajectory-control claims:
//  * the LFSR trajectory (ascending / descending / random) is a test
//    control factor — measured here as coverage of adjacent coupling
//    faults per trajectory choice;
//  * intra-word faults are tested "by parallel application of a
//    pi-testing for BOM ... with (1) parallel or (2) random
//    trajectories" — both modes are measured on an intra-word fault
//    universe.
#include <algorithm>
#include <cstdio>

#include "analysis/campaign_engine.hpp"
#include "core/intra_word.hpp"
#include "mem/fault_universe.hpp"
#include "mem/packed_fault_ram.hpp"
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
    const analysis::CampaignResult r =
        analysis::run_prt_campaign(universe, s, opt);

    // Even indices: aggressor above victim; odd: below.
    const std::uint64_t half = universe.size() / 2;
    std::uint64_t det_up = half, det_down = half;
    for (const std::size_t i : r.escapes) --(i % 2 == 0 ? det_up : det_down);
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
    core::IntraWordConfig cfg;
    cfg.mode = mode;
    cfg.seed = 5;
    const core::IntraWordOracle oracle(cfg, n, m);
    // One fault per lane, 512 lanes per sweep of the packed replay.
    mem::PackedFaultRamT<mem::WideWord<8>> ram(n, m);
    std::uint64_t total = 0;
    for (std::size_t begin = 0; begin < universe.size();
         begin += ram.kLanes) {
      ram.reset();
      const std::size_t end = std::min(universe.size(), begin + ram.kLanes);
      for (std::size_t i = begin; i < end; ++i) ram.add_fault(universe[i]);
      total += oracle.run_packed(ram).detected_count();
    }
    t.add(mode == core::IntraWordMode::kParallelTrajectories
              ? "parallel trajectories"
              : "random (independent) trajectories",
          oracle.ops(),
          format_fixed(100.0 * static_cast<double>(total) /
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
