// Tests for fault-universe enumeration (mem/fault_universe).
#include "mem/fault_universe.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace prt::mem {
namespace {

TEST(SingleCellUniverse, CountsMatch) {
  // 9 kinds per bit with read logic, 5 without.
  EXPECT_EQ(single_cell_universe(8, 1, true).size(), 8u * 9);
  EXPECT_EQ(single_cell_universe(8, 1, false).size(), 8u * 5);
  EXPECT_EQ(single_cell_universe(4, 4, true).size(), 4u * 4 * 9);
}

TEST(SingleCellUniverse, EveryCellBitCovered) {
  const auto u = single_cell_universe(4, 2, false);
  std::set<std::pair<Addr, unsigned>> seen;
  for (const Fault& f : u) seen.insert({f.victim.cell, f.victim.bit});
  EXPECT_EQ(seen.size(), 8u);
}

TEST(SelectPairs, ExhaustiveWhenSmall) {
  const auto pairs = select_pairs(5, 1000, 42);
  EXPECT_EQ(pairs.size(), 20u);  // 5*4 ordered pairs
  std::set<std::pair<Addr, Addr>> seen(pairs.begin(), pairs.end());
  EXPECT_EQ(seen.size(), 20u);
  for (const auto& [a, v] : pairs) EXPECT_NE(a, v);
}

TEST(SelectPairs, SampledWhenLarge) {
  const auto pairs = select_pairs(1000, 128, 42);
  EXPECT_EQ(pairs.size(), 128u);
  for (const auto& [a, v] : pairs) {
    EXPECT_NE(a, v);
    EXPECT_LT(a, 1000u);
    EXPECT_LT(v, 1000u);
  }
}

TEST(SelectPairs, DeterministicForSeed) {
  EXPECT_EQ(select_pairs(100, 50, 7), select_pairs(100, 50, 7));
  EXPECT_NE(select_pairs(100, 50, 7), select_pairs(100, 50, 8));
}

TEST(CouplingUniverse, NineFaultsPerPair) {
  const std::vector<std::pair<Addr, Addr>> pairs{{0, 1}, {2, 3}};
  const auto u = coupling_universe(pairs, 0);
  EXPECT_EQ(u.size(), 18u);
  for (const Fault& f : u) {
    EXPECT_TRUE(is_coupling(f.kind));
    EXPECT_NE(f.victim.cell, f.aggressor.cell);
  }
}

TEST(MakeUniverse, AllSectionsPresent) {
  UniverseOptions opt;
  opt.npsf = true;
  const auto u = make_universe(16, 1, opt);
  std::set<FaultClass> classes;
  for (const Fault& f : u) classes.insert(fault_class(f.kind));
  EXPECT_TRUE(classes.count(FaultClass::kSaf));
  EXPECT_TRUE(classes.count(FaultClass::kTf));
  EXPECT_TRUE(classes.count(FaultClass::kReadLogic));
  EXPECT_TRUE(classes.count(FaultClass::kCfIn));
  EXPECT_TRUE(classes.count(FaultClass::kCfId));
  EXPECT_TRUE(classes.count(FaultClass::kCfSt));
  EXPECT_TRUE(classes.count(FaultClass::kBridge));
  EXPECT_TRUE(classes.count(FaultClass::kAf));
  EXPECT_TRUE(classes.count(FaultClass::kNpsf));
}

TEST(MakeUniverse, SectionsCanBeDisabled) {
  UniverseOptions opt;
  opt.single_cell = false;
  opt.coupling = false;
  opt.bridges = false;
  opt.address_decoder = false;
  const auto u = make_universe(16, 1, opt);
  EXPECT_TRUE(u.empty());
}

TEST(MakeUniverse, IntraWordFaultsOnlyForWom) {
  UniverseOptions opt;
  opt.single_cell = false;
  opt.address_decoder = false;
  opt.bridges = false;
  opt.coupling = true;
  opt.intra_word = true;
  const auto bom = make_universe(4, 1, opt);
  for (const Fault& f : bom) {
    EXPECT_EQ(f.victim.bit, 0u);
    EXPECT_EQ(f.aggressor.bit, 0u);
  }
  const auto wom = make_universe(4, 4, opt);
  bool has_intra = false;
  for (const Fault& f : wom) {
    if (is_coupling(f.kind) && f.victim.cell == f.aggressor.cell) {
      has_intra = true;
      EXPECT_NE(f.victim.bit, f.aggressor.bit);
    }
  }
  EXPECT_TRUE(has_intra);
}

TEST(MakeUniverse, AddressFaultsReferenceValidCells) {
  UniverseOptions opt;
  const auto u = make_universe(8, 1, opt);
  for (const Fault& f : u) {
    EXPECT_LT(f.victim.cell, 8u);
    if (is_address_fault(f.kind) && f.kind != FaultKind::kAfNoAccess) {
      EXPECT_LT(f.alias, 8u);
      EXPECT_NE(f.alias, f.victim.cell);
    }
  }
}

TEST(MakeUniverse, NpsfOnlyInteriorCells) {
  UniverseOptions opt;
  opt.single_cell = false;
  opt.coupling = false;
  opt.bridges = false;
  opt.address_decoder = false;
  opt.npsf = true;
  opt.npsf_grid_cols = 4;
  const auto u = make_universe(16, 1, opt);
  EXPECT_FALSE(u.empty());
  for (const Fault& f : u) {
    const Addr row = f.victim.cell / 4;
    const Addr col = f.victim.cell % 4;
    EXPECT_GT(row, 0u);
    EXPECT_GT(col, 0u);
    EXPECT_LT(col, 3u);
    EXPECT_LT(f.victim.cell + 4, 16u);
  }
}

TEST(MakeUniverse, RejectsMalformedExplicitNpsfGrid) {
  UniverseOptions opt;
  opt.npsf = true;
  // A 1-cell-wide grid has no interior victims.
  opt.npsf_grid_cols = 1;
  EXPECT_THROW(make_universe(16, 1, opt), std::invalid_argument);
  // A width that does not divide n leaves a ragged last row; the
  // message must name the offending value.
  opt.npsf_grid_cols = 5;
  try {
    (void)make_universe(16, 1, opt);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("npsf_grid_cols = 5"), std::string::npos) << what;
    EXPECT_NE(what.find("16"), std::string::npos) << what;
  }
  // The square-ish default (cols = 0) never throws, even when no
  // divisor exists: it picks the smallest cols with cols*cols >= n.
  opt.npsf_grid_cols = 0;
  EXPECT_NO_THROW((void)make_universe(17, 1, opt));
}

void expect_invalid(const std::function<void()>& call,
                    const std::string& message) {
  try {
    call();
    ADD_FAILURE() << "no throw, expected: " << message;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), message);
  }
}

// The boundary probes: each generator rejects, naming the value, a
// geometry whose universe no memory holds.  Unchecked, a Release build
// emits such faults: classical_universe(1) and van_de_goor_universe(1)
// "AF-wrong v=(0,0) alias=4294967295", and make_universe(4, 33, {})
// 2088 faults with "SAF0 v=(0,32)" among them (make_universe(4, 0, {})
// 132 faults).
TEST(Generators, RejectGeometriesNoMemoryHolds) {
  expect_invalid([] { (void)classical_universe(1); },
                 "classical_universe: n must be >= 3 (got 1)");
  expect_invalid([] { (void)van_de_goor_universe(1); },
                 "van_de_goor_universe: n must be >= 3 (got 1)");
  expect_invalid([] { (void)make_universe(4, 0, {}); },
                 "make_universe: m must be in [1, 32] (got 0)");
  expect_invalid([] { (void)make_universe(4, 33, {}); },
                 "make_universe: m must be in [1, 32] (got 33)");
  expect_invalid([] { (void)classical_universe(2); },
                 "classical_universe: n must be >= 3 (got 2)");
  expect_invalid([] { (void)make_universe(1, 1, {}); },
                 "make_universe: n must be >= 2 (got 1)");
  EXPECT_FALSE(classical_universe(3).empty());
  EXPECT_FALSE(make_universe(2, 32, {}).empty());
}

// Every fault a generator emits for a geometry it accepts fits that
// memory (mem::validate_fault), over every word width and the small
// sizes where aliases and pairs wrap.
TEST(Generators, EveryEmittedFaultPassesValidateFault) {
  const auto check = [](const std::vector<Fault>& universe, Addr n,
                        unsigned m) {
    for (const Fault& f : universe) {
      try {
        validate_fault(f, n, m);
      } catch (const std::invalid_argument& e) {
        ADD_FAILURE() << "n=" << n << " m=" << m << ": " << e.what();
        return;
      }
    }
  };
  for (Addr n = 2; n <= 9; ++n) {
    if (n >= 3) {
      check(classical_universe(n), n, 1);
      check(van_de_goor_universe(n), n, 1);
    }
    for (unsigned m = 1; m <= 32; ++m) {
      UniverseOptions all;
      all.npsf = true;
      check(make_universe(n, m, all), n, m);
    }
  }
}

}  // namespace
}  // namespace prt::mem
