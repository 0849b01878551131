// Reproduces Fig. 2 / §4 of the paper: the two-port PRT scheme issues
// both window reads simultaneously, cutting a pi-iteration from 3n
// single-port cycles to 2n ("the time complexity of a pi-test iteration
// for the analyzed schemes is equal 2n"), with quad-port variants
// reaching ~n.  Prints the measured cycle counts.
#include <cstdio>

#include "core/prt_multiport.hpp"
#include "mem/sram.hpp"
#include "util/table.hpp"

namespace {

using namespace prt;

core::PiTester wom_tester() {
  return core::PiTester(gf::GF2m(0b10011), {1, 2, 2});
}

void print_table() {
  std::printf("== Fig. 2 / §4: multi-port pi-iteration cycle counts ==\n");
  Table t({"n", "1P cycles", "2P cycles", "4P cycles", "4P 2xLFSR",
           "1P/2P", "1P/4P"});
  const core::PiTester tester = wom_tester();
  core::PiConfig cfg;
  cfg.init = {0, 1};
  for (mem::Addr n : {256u, 1024u, 4096u, 16384u}) {
    mem::SimRam r1(n, 4, 1);
    mem::SimRam r2(n, 4, 2);
    mem::SimRam r4(n, 4, 4);
    mem::SimRam r4b(n, 4, 4);
    const auto single = tester.run(r1, cfg);
    const auto dual = core::run_pi_dualport(r2, tester, cfg);
    const auto quad = core::run_pi_quadport(r4, tester, cfg);
    const auto multi = core::run_pi_multilfsr(r4b, tester, cfg);
    t.add(n, single.cycles(), dual.cycles, quad.cycles, multi.cycles,
          format_fixed(static_cast<double>(single.cycles()) /
                           static_cast<double>(dual.cycles),
                       3),
          format_fixed(static_cast<double>(single.cycles()) /
                           static_cast<double>(quad.cycles),
                       3));
  }
  std::printf("%s", t.str().c_str());
  std::printf(
      "\npaper: 1P = O(3n), 2P = 2n -> expected 1P/2P ratio 1.5; the\n"
      "quad-port single-LFSR scheme folds the write into the read cycle\n"
      "(ratio 3), the dual-LFSR variant halves the array per engine.\n\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
