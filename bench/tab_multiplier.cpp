// Reproduces the §2 claim: "It's proposed an algorithm to design the
// optimal scheme of multiplication by a constant in GF.  Multiplier by
// a constant contains only XOR-gates."  Ablation: naive per-row
// synthesis vs greedy common-subexpression elimination (Paar), gate
// counts and depths across fields and constants.
#include <cstdio>

#include "gf/const_mult.hpp"
#include "util/table.hpp"

namespace {

using namespace prt;

void print_tables() {
  std::printf("== constant-multiplier XOR synthesis, naive vs CSE ==\n");
  Table t({"field", "constants", "naive gates (avg)", "CSE gates (avg)",
           "saving %", "max depth naive", "max depth CSE"});
  t.set_align(0, Align::kLeft);
  for (unsigned m : {4u, 6u, 8u, 10u}) {
    const gf::GF2m field = gf::GF2m::standard(m);
    std::uint64_t naive_total = 0;
    std::uint64_t cse_total = 0;
    unsigned naive_depth = 0;
    unsigned cse_depth = 0;
    const gf::Elem limit = static_cast<gf::Elem>(
        m <= 8 ? field.size() : 256u);  // sample large fields
    for (gf::Elem c = 1; c < limit; ++c) {
      const gf::MatrixGF2 mat = gf::multiplier_matrix(field, c);
      const gf::XorNetwork naive = gf::synthesize_naive(mat);
      const gf::XorNetwork cse = gf::synthesize_cse(mat);
      naive_total += naive.gate_count();
      cse_total += cse.gate_count();
      naive_depth = std::max(naive_depth, naive.depth());
      cse_depth = std::max(cse_depth, cse.depth());
    }
    const double count = limit - 1;
    t.add("GF(2^" + std::to_string(m) + ")",
          static_cast<std::uint64_t>(count),
          format_fixed(static_cast<double>(naive_total) / count, 2),
          format_fixed(static_cast<double>(cse_total) / count, 2),
          format_fixed(100.0 * (1.0 - static_cast<double>(cse_total) /
                                          static_cast<double>(naive_total)),
                       1),
          naive_depth, cse_depth);
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("== the paper's feedback w = 2*r1 + 2*r2 over GF(2^4) ==\n");
  const gf::GF2m f4(0b10011);
  const gf::XorNetwork mul2 =
      gf::synthesize_cse(gf::multiplier_matrix(f4, 2));
  const gf::FeedbackCost cost = gf::feedback_cost(f4, {1, 2, 2});
  Table b({"block", "XOR gates"});
  b.set_align(0, Align::kLeft);
  b.add("multiply-by-2 (one instance)", mul2.gate_count());
  b.add("both coefficient multipliers", cost.multiplier_gates);
  b.add("word adder", cost.adder_gates);
  b.add("TOTAL feedback", cost.total());
  std::printf("%s\n", b.str().c_str());
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
