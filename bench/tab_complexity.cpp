// Reproduces the §3/§4 time-complexity claims: a pi-test iteration is
// O(3n) on a single-port memory and 2n cycles on a two-port memory;
// March baselines run 4n..22n.  Operation counts are *measured* from
// the memory's access counters, not computed from formulas.
#include <cstdio>

#include "core/prt_engine.hpp"
#include "core/prt_multiport.hpp"
#include "march/march_library.hpp"
#include "march/march_runner.hpp"
#include "mem/sram.hpp"
#include "util/table.hpp"

namespace {

using namespace prt;

void print_ops_table() {
  std::printf("== measured operations per algorithm (BOM) ==\n");
  Table t({"algorithm", "formula", "n=1024", "n=4096", "n=16384",
           "ops per cell"});
  t.set_align(0, Align::kLeft);
  t.set_align(1, Align::kLeft);

  auto add_march = [&](const march::MarchTest& test) {
    std::vector<std::string> row{test.name,
                                 std::to_string(test.ops_per_cell()) + "n"};
    for (mem::Addr n : {1024u, 4096u, 16384u}) {
      mem::SimRam ram(n, 1);
      (void)march::run_march(test, ram);
      row.push_back(std::to_string(ram.total_stats().total()));
    }
    row.push_back(std::to_string(test.ops_per_cell()));
    t.add_row(std::move(row));
  };

  auto add_prt = [&](const char* name, unsigned iters) {
    std::vector<std::string> row{name, std::to_string(3 * iters) + "n"};
    for (mem::Addr n : {1024u, 4096u, 16384u}) {
      mem::SimRam ram(n, 1);
      core::PrtScheme s = core::standard_scheme_bom(n);
      s.iterations.resize(iters);
      (void)core::run_prt(ram, s);
      row.push_back(std::to_string(ram.total_stats().total()));
    }
    row.push_back(std::to_string(3 * iters));
    t.add_row(std::move(row));
  };

  add_prt("PRT pi-iteration", 1);
  add_prt("PRT-3", 3);
  add_march(march::mats());
  add_march(march::mats_plus());
  add_march(march::mats_pp());
  add_march(march::march_x());
  add_march(march::march_y());
  add_march(march::march_c_minus());
  add_march(march::march_sr());
  add_march(march::march_lr());
  add_march(march::march_a());
  add_march(march::march_b());
  add_march(march::march_ss());
  std::printf("%s\n", t.str().c_str());
}

void print_cycles_table() {
  std::printf("== pi-iteration scheduling cycles by port count ==\n");
  Table t({"ports", "scheme", "cycles(n=4096)", "cycles/n"});
  t.set_align(1, Align::kLeft);
  const mem::Addr n = 4096;
  const core::PiTester tester(gf::GF2m(0b11), {1, 1, 1});
  core::PiConfig cfg;
  cfg.init = {1, 1};

  mem::SimRam r1(n, 1, 1);
  const auto single = tester.run(r1, cfg);
  t.add(1, "serial r,r,w (§3: O(3n))", single.cycles(),
        format_fixed(static_cast<double>(single.cycles()) / n, 3));

  mem::SimRam r2(n, 1, 2);
  const auto dual = core::run_pi_dualport(r2, tester, cfg);
  t.add(2, "Fig. 2 parallel reads (§4: 2n)", dual.cycles,
        format_fixed(static_cast<double>(dual.cycles) / n, 3));

  mem::SimRam r4(n, 1, 4);
  const auto quad = core::run_pi_quadport(r4, tester, cfg);
  t.add(4, "single-LFSR fused r,r,w", quad.cycles,
        format_fixed(static_cast<double>(quad.cycles) / n, 3));

  mem::SimRam r4b(n, 1, 4);
  const auto multi = core::run_pi_multilfsr(r4b, tester, cfg);
  t.add(4, "dual-LFSR halves", multi.cycles,
        format_fixed(static_cast<double>(multi.cycles) / n, 3));

  std::printf("%s\n", t.str().c_str());
}

}  // namespace

int main() {
  print_ops_table();
  print_cycles_table();
  return 0;
}
