// BIST design assistant: given a memory geometry, picks the field and
// generator polynomials, synthesizes the constant-multiplier XOR
// network, estimates the silicon overhead (§4), and searches for a
// good TDB with the greedy designer — everything a designer needs to
// instantiate PRT for a new RAM.
//
//   $ ./bist_designer [n] [m]        (defaults: n = 4096, m = 8)
#include <cstdio>

#include "analysis/tdb_search.hpp"
#include "core/hw_overhead.hpp"
#include "gf/const_mult.hpp"
#include "gf/gf2m_poly.hpp"
#include "mem/fault_universe.hpp"
#include "parse_args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace prt;
  // m is the degree of a GF(2^m) field, which GF2m caps at 16.
  unsigned long n_arg = 4096;
  unsigned long m_arg = 8;
  if ((argc > 1 && !examples::parse_unsigned(argv[1], 1, 1UL << 24, n_arg)) ||
      (argc > 2 && !examples::parse_unsigned(argv[2], 1, 16, m_arg))) {
    std::fprintf(stderr, "usage: %s [n] [m]   (1 <= n <= 2^24, 1 <= m <= 16)\n",
                 argv[0]);
    return 2;
  }
  const auto n = static_cast<mem::Addr>(n_arg);
  const auto m = static_cast<unsigned>(m_arg);

  // 1. Field selection: first primitive p(z) of degree m.
  const gf::Poly2 p = gf::first_primitive(m);
  const gf::GF2m field(p);
  std::printf("memory: %u cells x %u bits\n", n, m);
  std::printf("field modulus p(z) = %s (primitive)\n",
              gf::poly_to_string(p).c_str());

  // 2. Generator selection: first primitive quadratic over GF(2^m)
  // (maximal ring period q^2 - 1).
  const auto g = gf::find_irreducible(field, 2, /*primitive=*/true);
  if (!g) {
    std::printf("no primitive quadratic found (unexpected)\n");
    return 1;
  }
  std::printf("generator g(x) = %s, virtual-LFSR period %llu\n",
              gf::poly_to_string(field, *g).c_str(),
              static_cast<unsigned long long>(gf::order_of_x(field, *g)));

  // 3. Multiplier synthesis for each non-trivial coefficient.
  Table mult({"coefficient", "naive XORs", "CSE XORs", "depth"});
  for (std::size_t j = 1; j < g->coeffs.size(); ++j) {
    const gf::Elem c = g->coeffs[j];
    if (c <= 1) continue;
    const gf::MatrixGF2 mat = gf::multiplier_matrix(field, c);
    const gf::XorNetwork naive = gf::synthesize_naive(mat);
    const gf::XorNetwork cse = gf::synthesize_cse(mat);
    mult.add(field.to_hex(c), naive.gate_count(), cse.gate_count(),
             cse.depth());
  }
  if (mult.rows() == 0) {
    std::printf("\nconstant multipliers: all feedback coefficients are 1 "
                "-- pure wiring, no XOR gates needed\n");
  } else {
    std::printf("\nconstant multipliers:\n%s", mult.str().c_str());
  }

  // 4. Overhead estimate (§4).
  const core::OverheadReport report =
      core::estimate_overhead(field, g->coeffs, n, /*ports=*/1);
  std::printf("\nBIST overhead: %llu transistors vs %llu memory "
              "transistors -> ratio %s\n",
              static_cast<unsigned long long>(report.bist_total()),
              static_cast<unsigned long long>(report.memory_transistors),
              format_pow2_ratio(report.ratio()).c_str());

  // 5. TDB search on a scaled-down proxy (same structure, small n so
  // the exhaustive campaign stays interactive).  The proxy universe
  // carries the single-cell, read-logic, intra-word and decoder
  // faults the per-iteration TDB actually controls; coupling coverage
  // is the scheme-level concern of extended_scheme_* (EXPERIMENTS.md).
  const mem::Addr proxy_n = 24;
  mem::UniverseOptions uopt;
  uopt.read_logic = true;
  uopt.coupling = false;
  uopt.bridges = false;
  uopt.intra_word = true;
  const auto universe = mem::make_universe(proxy_n, m, uopt);
  analysis::CampaignOptions opt;
  opt.n = proxy_n;
  opt.m = m;
  const auto pool = analysis::default_candidates(field, g->coeffs);
  const auto search =
      analysis::search_tdb(field, pool, universe, opt, /*iterations=*/4);
  std::printf("\ngreedy TDB search on a %u-cell proxy (%zu faults):\n",
              proxy_n, universe.size());
  for (std::size_t i = 0; i < search.coverage_by_iterations.size(); ++i) {
    const auto& it = search.scheme.iterations[i];
    std::printf("  iteration %zu: g0..gk = (", i + 1);
    for (std::size_t j = 0; j < it.g.size(); ++j) {
      std::printf("%s%s", j ? "," : "", field.to_hex(it.g[j]).c_str());
    }
    std::printf(") init = (%s,%s) %s -> coverage %.2f%%\n",
                field.to_hex(it.config.init[0]).c_str(),
                field.to_hex(it.config.init[1]).c_str(),
                core::to_string(it.config.trajectory),
                search.coverage_by_iterations[i]);
  }
  std::printf("escapes after %zu iterations: %zu\n",
              search.scheme.iterations.size(), search.escapes.size());
  return 0;
}
