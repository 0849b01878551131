// Reproduces Fig. 1a of the paper: the expected states of bit-oriented
// memory cells after a pi-test iteration with g(x) = 1 + x + x^2 over
// GF(2), and the ring closure when the automaton advances a whole
// number of periods.
#include <cstdio>

#include "core/pi_iteration.hpp"
#include "mem/sram.hpp"
#include "util/table.hpp"

namespace {

using namespace prt;

core::PiTester bom_tester() {
  return core::PiTester(gf::GF2m(0b11), {1, 1, 1});
}

void print_figure() {
  std::printf(
      "== Fig. 1a: pi-test iteration on a BOM, g(x) = 1 + x + x^2 ==\n");
  const core::PiTester tester = bom_tester();
  std::printf("LFSR period: %llu (primitive: %s)\n",
              static_cast<unsigned long long>(tester.period()),
              tester.g().size() == 3 ? "yes" : "?");

  for (const auto& init : {std::vector<gf::Elem>{1, 1},
                           std::vector<gf::Elem>{0, 1}}) {
    mem::SimRam ram(11, 1);
    core::PiConfig cfg;
    cfg.init = init;
    const core::PiResult r = tester.run(ram, cfg);
    std::printf("Init = (%u,%u)  memory image:", init[0], init[1]);
    for (mem::Addr a = 0; a < ram.size(); ++a) {
      std::printf(" %u", ram.peek(a));
    }
    std::printf("  Fin = (%u,%u)  Fin* = (%u,%u)  %s\n", r.fin[0], r.fin[1],
                r.fin_expected[0], r.fin_expected[1],
                r.pass ? "PASS" : "FAIL");
  }

  // Ring closure: (n - k) multiple of the period 3.
  Table t({"n", "(n-2) mod 3", "ring closes", "Fin == Init"});
  for (mem::Addr n : {5u, 6u, 7u, 8u, 11u, 32u, 3074u}) {
    mem::SimRam ram(n, 1);
    core::PiConfig cfg;
    cfg.init = {0, 1};
    const core::PiResult r = tester.run(ram, cfg);
    t.add(n, (n - 2) % 3, tester.ring_closes(n),
          r.fin == cfg.init);
  }
  std::printf("\n%s\n", t.str().c_str());
}

}  // namespace

int main() {
  print_figure();
  return 0;
}
