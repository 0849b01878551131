// Cross-module integration tests: the full PRT stack against the March
// baselines on shared fault universes — the end-to-end story of the
// paper's evaluation, with the reproduced claim split into
//  * the classical model {SAF, TF, AF-none/wrong, adjacent CFin,
//    adjacent CFst (partial), bridges} reached by the pure 3-iteration
//    scheme, and
//  * the full van de Goor model (adds CFid, WDF, read-logic, AF-multi)
//    reached by the extended scheme with verify passes.
#include <gtest/gtest.h>

#include "analysis/coverage.hpp"
#include "analysis/fault_sim.hpp"
#include "analysis/tdb_search.hpp"
#include "core/prt_multiport.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"

namespace prt {
namespace {

using analysis::CampaignOptions;
using analysis::run_campaign;

TEST(Integration, Prt3FullCoverageOnClassicalModel) {
  // The reproduced §3 headline on the classical fault model: three pure
  // pi-iterations detect every fault.
  for (mem::Addr n : {32u, 33u}) {
    const auto universe = mem::classical_universe(n);
    CampaignOptions opt;
    opt.n = n;
    const auto r = run_campaign(
        universe, analysis::prt_algorithm(core::standard_scheme_bom(n)),
        opt);
    EXPECT_EQ(r.overall.detected, r.overall.total)
        << "n=" << n << " escapes: " << r.escapes.size();
  }
}

TEST(Integration, ExtendedFullCoverageOnFullModel) {
  for (mem::Addr n : {18u, 32u}) {
    const auto universe = mem::van_de_goor_universe(n);
    CampaignOptions opt;
    opt.n = n;
    const auto r = run_campaign(
        universe, analysis::prt_algorithm(core::extended_scheme_bom(n)),
        opt);
    EXPECT_EQ(r.overall.detected, r.overall.total)
        << "n=" << n << " escapes: " << r.escapes.size();
  }
}

TEST(Integration, CoverageMonotoneOverIterations) {
  const mem::Addr n = 32;
  const auto universe = mem::classical_universe(n);
  CampaignOptions opt;
  opt.n = n;
  double prev = 0;
  for (unsigned iters = 1; iters <= 3; ++iters) {
    core::PrtScheme prefix = core::standard_scheme_bom(n);
    prefix.iterations.resize(iters);
    const auto r =
        run_campaign(universe, analysis::prt_algorithm(prefix), opt);
    EXPECT_GE(r.overall.percent(), prev - 1e-9) << iters;
    prev = r.overall.percent();
  }
  EXPECT_DOUBLE_EQ(prev, 100.0);
}

TEST(Integration, MarchCMinusAlsoFullOnClassicalModel) {
  const mem::Addr n = 32;
  const auto universe = mem::classical_universe(n);
  CampaignOptions opt;
  opt.n = n;
  const auto r = run_campaign(
      universe, analysis::march_algorithm(march::march_c_minus()), opt);
  EXPECT_DOUBLE_EQ(r.overall.percent(), 100.0);
}

TEST(Integration, MatsWeakerThanPrt3) {
  const mem::Addr n = 32;
  const auto universe = mem::classical_universe(n);
  CampaignOptions opt;
  opt.n = n;
  const auto mats =
      run_campaign(universe, analysis::march_algorithm(march::mats()), opt);
  const auto prt3 = run_campaign(
      universe, analysis::prt_algorithm(core::standard_scheme_bom(n)), opt);
  EXPECT_LT(mats.overall.percent(), prt3.overall.percent());
}

TEST(Integration, WomExtendedCoversSingleCellAndIntraWord) {
  const mem::Addr n = 24;
  const unsigned m = 4;
  mem::UniverseOptions uopt;
  uopt.coupling = false;
  uopt.bridges = false;
  uopt.address_decoder = false;
  uopt.intra_word = true;
  auto universe = mem::make_universe(n, m, uopt);
  CampaignOptions opt;
  opt.n = n;
  opt.m = m;
  const auto r = run_campaign(
      universe, analysis::prt_algorithm(core::extended_scheme_wom(n, m)),
      opt);
  EXPECT_DOUBLE_EQ(r.by_class.at(mem::FaultClass::kSaf).percent(), 100.0);
  EXPECT_DOUBLE_EQ(r.by_class.at(mem::FaultClass::kTf).percent(), 100.0);
  // Word-level backgrounds leave a slice of the intra-word CFid
  // variants to the dedicated bit-plane tester (core/intra_word).
  EXPECT_GT(r.overall.percent(), 90.0);
}

TEST(Integration, DualPortSchemeSameCoverageAsSinglePort) {
  // Fig. 2 speeds the iteration up; it must not lose detection.  SOF is
  // excluded: its sense-amp history is per-port, so port scheduling
  // legitimately changes which history bit a read echoes.
  const mem::Addr n = 24;
  auto universe = mem::single_cell_universe(n, 1, false);
  for (mem::Addr c = 0; c < n; ++c) {
    universe.push_back(mem::Fault::rdf({c, 0}));
    universe.push_back(mem::Fault::drdf({c, 0}));
    universe.push_back(mem::Fault::irf({c, 0}));
  }
  const core::PiTester tester(gf::GF2m(0b11), {1, 0, 1});

  auto make_configs = [] {
    std::vector<core::PiConfig> cfgs(3);
    cfgs[0].init = {1, 1};
    cfgs[1].init = {0, 0};
    cfgs[1].trajectory = core::TrajectoryKind::kDescending;
    cfgs[2].init = {0, 1};
    return cfgs;
  };
  auto dual_algo = [&](mem::Memory& mry) {
    bool bad = false;
    for (const auto& cfg : make_configs()) {
      bad |= !run_pi_dualport(mry, tester, cfg).pass;
    }
    return bad;
  };
  auto single_algo = [&](mem::Memory& mry) {
    bool bad = false;
    for (const auto& cfg : make_configs()) {
      bad |= !tester.run(mry, cfg).pass;
    }
    return bad;
  };

  // run_campaign sizes a one-port memory, so both algorithms take turns
  // on one dual-port memory here, reset to each fault before each run.
  mem::FaultyRam ram(n, 1, /*port_count=*/2);
  std::size_t dual = 0;
  std::size_t single = 0;
  for (const mem::Fault& fault : universe) {
    ram.reset(fault);
    dual += dual_algo(ram) ? 1 : 0;
    ram.reset(fault);
    single += single_algo(ram) ? 1 : 0;
  }
  EXPECT_EQ(dual, single);
}

TEST(Integration, OpCountRatioMatchesPaper) {
  // One pi-iteration is 3n; the 3-iteration scheme is 9n, below March
  // C-'s 10n, and a single iteration is far below.
  const mem::Addr n = 1024;
  EXPECT_EQ(core::prt_ops(n, 2, 1), 3u * n);
  EXPECT_EQ(core::prt_ops(n, 2, 3), 9u * n);
  EXPECT_EQ(march::march_c_minus().total_ops(n), 10u * n);
  EXPECT_LT(core::prt_ops(n, 2, 3), march::march_c_minus().total_ops(n));
}

TEST(Integration, SearchedTdbMatchesHandSchemeOnClassicalModel) {
  const mem::Addr n = 16;
  const auto universe = mem::classical_universe(n);
  CampaignOptions opt;
  opt.n = n;
  const gf::GF2m f(0b11);
  const auto pool = analysis::default_candidates(f, {1, 1, 1});
  const auto searched = analysis::search_tdb(f, pool, universe, opt, 3);
  const auto hand = run_campaign(
      universe, analysis::prt_algorithm(core::standard_scheme_bom(n)), opt);
  EXPECT_GE(searched.coverage_by_iterations.back() + 1e-9,
            hand.overall.percent());
}

TEST(Integration, MisrAddsNoFalsePositives) {
  core::PrtScheme s = core::standard_scheme_wom(64, 4);
  s.misr_poly = 0b100011101;
  mem::SimRam ram(64, 4);
  EXPECT_FALSE(core::run_prt(ram, s).detected());
}

TEST(Integration, EndToEndReportRenders) {
  const mem::Addr n = 16;
  const auto universe = mem::van_de_goor_universe(n);
  CampaignOptions opt;
  opt.n = n;
  std::vector<analysis::NamedResult> rows;
  rows.push_back(
      {"PRT-3",
       run_campaign(universe,
                    analysis::prt_algorithm(core::standard_scheme_bom(n)),
                    opt)});
  rows.push_back(
      {"PRT-ext",
       run_campaign(universe,
                    analysis::prt_algorithm(core::extended_scheme_bom(n)),
                    opt)});
  rows.push_back(
      {"March C-",
       run_campaign(universe,
                    analysis::march_algorithm(march::march_c_minus()),
                    opt)});
  const Table t = analysis::coverage_table(rows);
  EXPECT_GT(t.rows(), 4u);
  EXPECT_EQ(t.cols(), 5u);
}

}  // namespace
}  // namespace prt
