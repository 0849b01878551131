// Tests for the fault-simulation campaign driver (analysis/fault_sim).
#include "analysis/fault_sim.hpp"

#include <gtest/gtest.h>

#include "analysis/coverage.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"

namespace prt::analysis {
namespace {

TEST(Campaign, TalliesByClass) {
  std::vector<mem::Fault> universe;
  universe.push_back(mem::Fault::saf({0, 0}, 0));
  universe.push_back(mem::Fault::saf({1, 0}, 1));
  universe.push_back(mem::Fault::tf({2, 0}, true));
  CampaignOptions opt;
  opt.n = 8;
  // A "test" that detects everything.
  const CampaignResult r =
      run_campaign(universe, [](mem::Memory&) { return true; }, opt);
  EXPECT_EQ(r.overall.total, 3u);
  EXPECT_EQ(r.overall.detected, 3u);
  EXPECT_EQ(r.by_class.at(mem::FaultClass::kSaf).total, 2u);
  EXPECT_EQ(r.by_class.at(mem::FaultClass::kTf).total, 1u);
  EXPECT_TRUE(r.escapes.empty());
}

TEST(Campaign, RecordsEscapes) {
  std::vector<mem::Fault> universe;
  universe.push_back(mem::Fault::saf({0, 0}, 0));
  universe.push_back(mem::Fault::saf({1, 0}, 1));
  CampaignOptions opt;
  opt.n = 8;
  const CampaignResult r =
      run_campaign(universe, [](mem::Memory&) { return false; }, opt);
  EXPECT_EQ(r.overall.detected, 0u);
  EXPECT_EQ(r.escapes, (std::vector<std::size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(r.overall.percent(), 0.0);
}

TEST(Campaign, EachRunGetsFreshMemory) {
  std::vector<mem::Fault> universe;
  universe.push_back(mem::Fault::saf({0, 0}, 1));
  universe.push_back(mem::Fault::saf({0, 0}, 1));
  CampaignOptions opt;
  opt.n = 4;
  int calls = 0;
  const CampaignResult r = run_campaign(
      universe,
      [&](mem::Memory& m) {
        ++calls;
        // Fresh memory: cell 1 must read 0 (prefilled), not whatever a
        // previous run wrote.
        EXPECT_EQ(m.read(1, 0), 0u);
        m.write(1, 1, 0);
        return true;
      },
      opt);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(r.overall.detected, 2u);
}

TEST(MarchAdapter, DetectsSafMissesNothingObvious) {
  const auto universe = mem::single_cell_universe(16, 1, false);
  CampaignOptions opt;
  opt.n = 16;
  const CampaignResult r =
      run_campaign(universe, march_algorithm(march::march_c_minus()), opt);
  // March C- covers SAF/TF/WDF-free... SAF and TF fully:
  EXPECT_DOUBLE_EQ(r.by_class.at(mem::FaultClass::kSaf).percent(), 100.0);
  EXPECT_DOUBLE_EQ(r.by_class.at(mem::FaultClass::kTf).percent(), 100.0);
}

TEST(PrtAdapter, StandardSchemeDetectsAllSafAndTf) {
  const auto universe = mem::single_cell_universe(24, 1, false);
  CampaignOptions opt;
  opt.n = 24;
  const CampaignResult r = run_campaign(
      universe, prt_algorithm(core::standard_scheme_bom(24)), opt);
  EXPECT_DOUBLE_EQ(r.by_class.at(mem::FaultClass::kSaf).percent(), 100.0);
  EXPECT_DOUBLE_EQ(r.by_class.at(mem::FaultClass::kTf).percent(), 100.0);
}

TEST(PrtAdapter, ExtendedSchemeDetectsWholeSingleCellUniverse) {
  const auto universe = mem::single_cell_universe(24, 1, true);
  CampaignOptions opt;
  opt.n = 24;
  const CampaignResult r = run_campaign(
      universe, prt_algorithm(core::extended_scheme_bom(24)), opt);
  EXPECT_DOUBLE_EQ(r.overall.percent(), 100.0);
}

TEST(PrtAdapter, PrefixTruncatesIterations) {
  const auto universe = mem::single_cell_universe(24, 1, false);
  CampaignOptions opt;
  opt.n = 24;
  const core::PrtScheme full_scheme = core::standard_scheme_bom(24);
  core::PrtScheme one_scheme = full_scheme;
  one_scheme.iterations.resize(1);
  const auto full = run_campaign(universe, prt_algorithm(full_scheme), opt);
  const auto one = run_campaign(universe, prt_algorithm(one_scheme), opt);
  EXPECT_GE(full.overall.detected, one.overall.detected);
  EXPECT_GT(one.overall.detected, 0u);
}

TEST(Coverage, PercentOfEmptyClassIs100) {
  ClassCoverage c;
  EXPECT_DOUBLE_EQ(c.percent(), 100.0);
}

TEST(CoverageTable, RendersAllAlgorithms) {
  const auto universe = mem::single_cell_universe(8, 1, false);
  CampaignOptions opt;
  opt.n = 8;
  std::vector<NamedResult> results;
  results.push_back(
      {"MATS+",
       run_campaign(universe, march_algorithm(march::mats_plus()), opt)});
  results.push_back(
      {"PRT-3",
       run_campaign(universe, prt_algorithm(core::standard_scheme_bom(8)),
                    opt)});
  const Table t = coverage_table(results);
  const std::string s = t.str();
  EXPECT_NE(s.find("MATS+"), std::string::npos);
  EXPECT_NE(s.find("PRT-3"), std::string::npos);
  EXPECT_NE(s.find("SAF"), std::string::npos);
  EXPECT_NE(s.find("TOTAL"), std::string::npos);
  EXPECT_EQ(t.cols(), 4u);
}

}  // namespace
}  // namespace prt::analysis
