// Reproduces Fig. 1b of the paper: the expected states of word-oriented
// memory cells for g(x) = 1 + 2x + 2x^2 over GF(2^4), p(z) = 1 + z +
// z^4 — the sequence 0, 1, 2, 6, ... — and the ring closure "if the
// memory array size is multiple by the period of LFSR then virtual
// automaton will return to the initial state".
#include <cstdio>

#include "core/pi_iteration.hpp"
#include "gf/gf2m_poly.hpp"
#include "mem/sram.hpp"
#include "util/table.hpp"

namespace {

using namespace prt;

core::PiTester wom_tester() {
  return core::PiTester(gf::GF2m(0b10011), {1, 2, 2});
}

void print_figure() {
  const gf::GF2m field(0b10011);
  const gf::PolyGF2m g({1, 2, 2});
  std::printf("== Fig. 1b: pi-test iteration on a WOM ==\n");
  std::printf("p(z) = %s (primitive over GF(2): %s)\n",
              gf::poly_to_string(0b10011).c_str(),
              gf::is_primitive(0b10011) ? "yes" : "no");
  std::printf("g(x) = %s over GF(2^4): irreducible %s, primitive %s\n",
              gf::poly_to_string(field, g).c_str(),
              gf::is_irreducible(field, g) ? "yes" : "no",
              gf::is_primitive(field, g) ? "yes" : "no");
  std::printf("LFSR period (order of x mod g): %llu\n",
              static_cast<unsigned long long>(gf::order_of_x(field, g)));

  const core::PiTester tester = wom_tester();
  mem::SimRam ram(16, 4);
  core::PiConfig cfg;
  cfg.init = {0, 1};
  const core::PiResult r = tester.run(ram, cfg);
  std::printf("Init = (0,1)  first 16 cells (hex):");
  for (mem::Addr a = 0; a < 16; ++a) {
    std::printf(" %s", field.to_hex(ram.peek(a)).c_str());
  }
  std::printf("\n(paper prints 0 1 2 6 ... for the same configuration)\n");
  std::printf("verdict: %s\n", r.pass ? "PASS" : "FAIL");

  Table t({"n", "(n-2) mod 255", "ring closes", "Fin == Init"});
  for (mem::Addr n : {255u, 256u, 257u, 512u, 767u}) {
    mem::SimRam big(n, 4);
    const core::PiResult rr = tester.run(big, cfg);
    t.add(n, (n - 2) % 255, tester.ring_closes(n), rr.fin == cfg.init);
  }
  std::printf("\n%s\n", t.str().c_str());
}

}  // namespace

int main() {
  print_figure();
  return 0;
}
