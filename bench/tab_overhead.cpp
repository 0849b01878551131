// Reproduces the §4 hardware-overhead claim: "The ponder of the
// hardware overhead in comparison with the memory capacity is of an
// order < 2^-20."  The transistor-count model (core/hw_overhead)
// counts the address-register-to-counter conversion, window registers,
// the synthesized XOR feedback network, the Init/Fin comparator and a
// small control FSM against the 6T cell array.
#include <cmath>
#include <cstdio>

#include "core/hw_overhead.hpp"
#include "util/table.hpp"

namespace {

using namespace prt;

void print_tables() {
  std::printf("== §4 overhead ratio vs memory capacity ==\n");
  Table t({"capacity (bits)", "m", "g(x)", "BIST transistors",
           "cell transistors", "ratio", "< 2^-20"});
  t.set_align(2, Align::kLeft);

  struct Config {
    unsigned m;
    gf::Poly2 p;
    std::vector<gf::Elem> g;
    const char* gname;
  };
  const std::vector<Config> configs{
      {1, 0b11, {1, 1, 1}, "1+x+x^2"},
      {4, 0b10011, {1, 2, 2}, "1+2x+2x^2 (paper)"},
      {8, 0, {1, 2, 3}, "1+2x+3x^2"},
      {16, 0, {1, 2, 3}, "1+2x+3x^2"},
  };
  for (const Config& cfg : configs) {
    const gf::GF2m field(cfg.p != 0 ? cfg.p : gf::first_primitive(cfg.m));
    for (unsigned log_bits : {20u, 24u, 28u, 30u}) {
      const std::uint64_t bits = std::uint64_t{1} << log_bits;
      const std::uint64_t n = bits / cfg.m;
      const core::OverheadReport r =
          core::estimate_overhead(field, cfg.g, n, /*ports=*/2);
      t.add("2^" + std::to_string(log_bits), cfg.m, cfg.gname,
            r.bist_total(), r.memory_transistors,
            format_pow2_ratio(r.ratio()),
            r.ratio() < std::pow(2.0, -20.0));
    }
  }
  std::printf("%s\n", t.str().c_str());

  std::printf("== overhead breakdown (m = 4, paper generator, 256Mb) ==\n");
  const gf::GF2m f4(0b10011);
  const core::OverheadReport r =
      core::estimate_overhead(f4, {1, 2, 2}, (std::uint64_t{1} << 28) / 4,
                              /*ports=*/2);
  Table b({"component", "transistors"});
  b.set_align(0, Align::kLeft);
  b.add("address counters (2 ports)", r.counter_transistors);
  b.add("window registers (k*m DFF)", r.window_transistors);
  b.add("feedback XOR network", r.feedback_transistors);
  b.add("Init/Fin comparator", r.comparator_transistors);
  b.add("control FSM", r.control_transistors);
  b.add("TOTAL BIST", r.bist_total());
  std::printf("%s\n", b.str().c_str());
}

}  // namespace

int main() {
  print_tables();
  return 0;
}
