// Tests for the greedy TDB designer (analysis/tdb_search).
#include "analysis/tdb_search.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "mem/fault_universe.hpp"

namespace prt::analysis {
namespace {

TEST(DefaultCandidates, PoolShape) {
  const gf::GF2m f(0b11);
  const auto pool = default_candidates(f, {1, 1, 1});
  EXPECT_GT(pool.size(), 8u);
  bool has_solid0 = false;
  for (const Candidate& c : pool) {
    EXPECT_EQ(c.config.init.size(), 2u);
    has_solid0 |= c.config.init[0] == 0 && c.config.init[1] == 0;
  }
  // Solid-0 must be present: it activates WDF and preloads
  // down-transitions.
  EXPECT_TRUE(has_solid0);
}

TEST(Search, CoverageMonotoneInIterations) {
  const gf::GF2m f(0b11);
  const auto pool = default_candidates(f, {1, 1, 1});
  const auto universe = mem::single_cell_universe(16, 1, true);
  CampaignOptions opt;
  opt.n = 16;
  const SearchResult r = search_tdb(f, pool, universe, opt, 3);
  ASSERT_EQ(r.coverage_by_iterations.size(), 3u);
  EXPECT_LE(r.coverage_by_iterations[0], r.coverage_by_iterations[1] + 1e-9);
  EXPECT_LE(r.coverage_by_iterations[1], r.coverage_by_iterations[2] + 1e-9);
}

TEST(Search, FourIterationsCoverSingleCellUniverse) {
  // {TF-down, WDF, SOF} cannot all be activated-and-read in 3 pure
  // pi-iterations (EXPERIMENTS.md); a 4th iteration closes the gap.
  const gf::GF2m f(0b11);
  const auto pool = default_candidates(f, {1, 1, 1});
  const auto universe = mem::single_cell_universe(16, 1, true);
  CampaignOptions opt;
  opt.n = 16;
  const SearchResult four = search_tdb(f, pool, universe, opt, 4);
  EXPECT_DOUBLE_EQ(four.coverage_by_iterations.back(), 100.0);
  EXPECT_TRUE(four.escapes.empty());
  const SearchResult three = search_tdb(f, pool, universe, opt, 3);
  EXPECT_GE(three.coverage_by_iterations.back(), 85.0);
}

TEST(Search, SchemeHasRequestedIterationCount) {
  const gf::GF2m f(0b11);
  const auto pool = default_candidates(f, {1, 1, 1});
  const auto universe = mem::single_cell_universe(8, 1, false);
  CampaignOptions opt;
  opt.n = 8;
  const SearchResult r = search_tdb(f, pool, universe, opt, 2);
  EXPECT_EQ(r.scheme.iterations.size(), 2u);
}

TEST(Search, BeatsOrMatchesSingleFixedIteration) {
  const gf::GF2m f(0b11);
  const auto pool = default_candidates(f, {1, 1, 1});
  mem::UniverseOptions uopt;
  uopt.address_decoder = false;
  uopt.bridges = false;
  uopt.coupling = false;
  const auto universe = mem::make_universe(16, 1, uopt);
  CampaignOptions opt;
  opt.n = 16;
  const SearchResult three = search_tdb(f, pool, universe, opt, 3);
  const SearchResult one = search_tdb(f, pool, universe, opt, 1);
  EXPECT_GE(three.coverage_by_iterations.back(),
            one.coverage_by_iterations.back());
}

TEST(Search, RejectsEmptyPoolAndZeroIterations) {
  // Both used to pass an assert that Release compiles out: an empty
  // pool read pool[0], and zero iterations returned an empty scheme
  // that every campaign boundary rejects.
  const gf::GF2m f(0b11);
  const auto universe = mem::single_cell_universe(8, 1, false);
  CampaignOptions opt;
  opt.n = 8;
  EXPECT_THROW((void)search_tdb(f, {}, universe, opt, 2),
               std::invalid_argument);
  try {
    (void)search_tdb(f, default_candidates(f, {1, 1, 1}), universe, opt, 0);
    ADD_FAILURE() << "zero iterations accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("got 0"), std::string::npos)
        << e.what();
  }
}

TEST(Search, WomFieldWorks) {
  const gf::GF2m f(0b10011);
  const auto pool = default_candidates(f, {1, 2, 2});
  const auto universe = mem::single_cell_universe(12, 4, false);
  CampaignOptions opt;
  opt.n = 12;
  opt.m = 4;
  const SearchResult r = search_tdb(f, pool, universe, opt, 4);
  EXPECT_DOUBLE_EQ(r.coverage_by_iterations.back(), 100.0);
}

}  // namespace
}  // namespace prt::analysis
