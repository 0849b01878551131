// The paper's Fig. 1b + Fig. 2 configuration end to end: a word-
// oriented dual-port RAM (m = 4, p(z) = 1+z+z^4) tested by the virtual
// LFSR g(x) = 1 + 2x + 2x^2, with the two-port schedule issuing both
// window reads in one cycle (2n cycles instead of 3n).
//
//   $ ./wom_dualport [n]        (default n = 257)
#include <cstdio>

#include "core/prt_multiport.hpp"
#include "gf/gf2m_poly.hpp"
#include "mem/fault_injector.hpp"
#include "parse_args.hpp"

int main(int argc, char** argv) {
  using namespace prt;
  // The quad-port schedules need n > 3.
  unsigned long arg = 257;
  if (argc > 1 && !examples::parse_unsigned(argv[1], 4, 1UL << 20, arg)) {
    std::fprintf(stderr, "usage: %s [n]   (4 <= n <= 2^20)\n", argv[0]);
    return 2;
  }
  const auto n = static_cast<mem::Addr>(arg);

  const gf::GF2m field(0b10011);  // p(z) = 1 + z + z^4
  const gf::PolyGF2m g({1, 2, 2});
  std::printf("field: GF(2^4) / %s\n",
              gf::poly_to_string(0b10011).c_str());
  std::printf("generator: g(x) = %s, period %llu, %s\n",
              gf::poly_to_string(field, g).c_str(),
              static_cast<unsigned long long>(gf::order_of_x(field, g)),
              gf::is_primitive(field, g) ? "primitive" : "non-primitive");

  const core::PiTester tester(field, {1, 2, 2});
  core::PiConfig cfg;
  cfg.init = {0, 1};

  // Healthy dual-port run.
  mem::FaultyRam ram(n, /*width=*/4, /*ports=*/2);
  const core::MultiPortResult healthy =
      core::run_pi_dualport(ram, tester, cfg);
  std::printf("\nn = %u cells: %llu cycles (2n = %u), verdict %s\n", n,
              static_cast<unsigned long long>(healthy.cycles), 2 * n,
              healthy.pass ? "OK" : "FAULTY");
  if (tester.ring_closes(n)) {
    std::printf("ring closes: Fin = (%X, %X) equals Init (0, 1)\n",
                healthy.fin[0], healthy.fin[1]);
  }

  // Inject an intra-word bridge and retest.
  ram.inject(
      mem::Fault::bridge({n / 2, 1}, {n / 2, 2}, /*wired_and=*/true));
  const core::MultiPortResult faulty =
      core::run_pi_dualport(ram, tester, cfg);
  std::printf("after intra-word bridge @%u: verdict %s\n", n / 2,
              faulty.pass ? "OK (escaped)" : "FAULTY");

  // Quad-port variants on a fresh memory.
  mem::FaultyRam quad(n, 4, 4);
  const auto q = core::run_pi_quadport(quad, tester, cfg);
  const auto m2 = core::run_pi_multilfsr(quad, tester, cfg);
  std::printf("quad-port single-LFSR: %llu cycles; dual-LFSR: %llu "
              "cycles (n = %u)\n",
              static_cast<unsigned long long>(q.cycles),
              static_cast<unsigned long long>(m2.cycles), n);
  return 0;
}
