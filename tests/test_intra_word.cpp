// Tests for intra-word bit-plane pi-testing (core/intra_word).
#include "core/intra_word.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <utility>

#include "mem/fault_injector.hpp"
#include "mem/fault_universe.hpp"
#include "mem/sram.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace prt::core {
namespace {

/// tab_trajectory's intra-word universe: every intra-word coupling
/// fault of a 64 x 8 memory, and no other fault.
const std::vector<mem::Fault>& table_universe() {
  static const std::vector<mem::Fault> universe = [] {
    mem::UniverseOptions uopt;
    uopt.single_cell = false;
    uopt.read_logic = false;
    uopt.coupling = true;
    uopt.bridges = false;
    uopt.address_decoder = false;
    uopt.coupling_pair_limit = 0;
    uopt.intra_word = true;
    return mem::make_universe(64, 8, uopt);
  }();
  return universe;
}

IntraWordConfig table_config(IntraWordMode mode) {
  IntraWordConfig cfg;
  cfg.mode = mode;
  cfg.seed = 5;
  return cfg;
}

constexpr IntraWordMode kModes[] = {IntraWordMode::kParallelTrajectories,
                                    IntraWordMode::kRandomTrajectories};

/// The verdict and Fin of one run.
using Verdict = std::pair<bool, std::vector<std::uint32_t>>;

/// The table's per-fault verdicts in kModes[mode]: one oracle on one
/// reused FaultyRam, as each table batch runs them.  Computed once per
/// binary; a pass over the universe takes seconds under the sanitizers.
const std::vector<Verdict>& table_verdicts(std::size_t mode) {
  static const std::array<std::vector<Verdict>, 2> verdicts = [] {
    std::array<std::vector<Verdict>, 2> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const IntraWordOracle oracle(table_config(kModes[i]), 64, 8);
      mem::FaultyRam ram(64, 8);
      for (const mem::Fault& f : table_universe()) {
        ram.reset(f);
        IntraWordResult r = oracle.run(ram);
        out[i].emplace_back(r.pass, std::move(r.fin));
      }
    }
    return out;
  }();
  return verdicts[mode];
}

/// The packed detections of `universe` under `oracle`: kLanes faults
/// per sweep of a PackedFaultRamT<W>, 1 where the lane is detected.
/// Also requires each sweep's scalar_ops to be ops() per fault and its
/// physical op count to be one run's: the replay issues the scalar
/// run's accesses once per sweep.
template <typename W>
std::vector<char> packed_verdicts(const IntraWordOracle& oracle,
                                  const std::vector<mem::Fault>& universe,
                                  mem::Addr n, unsigned m) {
  std::vector<char> detected(universe.size(), 0);
  mem::PackedFaultRamT<W> ram(n, m);
  for (std::size_t begin = 0; begin < universe.size(); begin += ram.kLanes) {
    ram.reset();
    const std::size_t end = std::min(universe.size(), begin + ram.kLanes);
    for (std::size_t f = begin; f < end; ++f) ram.add_fault(universe[f]);
    const PackedVerdictT<W> v = oracle.run_packed(ram);
    EXPECT_EQ(v.scalar_ops, (end - begin) * oracle.ops());
    EXPECT_EQ(ram.ops(), oracle.ops());
    for (std::size_t f = begin; f < end; ++f) {
      detected[f] = v.lane_detected(static_cast<unsigned>(f - begin)) ? 1 : 0;
    }
  }
  return detected;
}

/// The table's packed detections in kModes[mode] on 512-lane sweeps.
const std::vector<char>& table_packed_verdicts(std::size_t mode) {
  static const std::array<std::vector<char>, 2> verdicts = [] {
    std::array<std::vector<char>, 2> out;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const IntraWordOracle oracle(table_config(kModes[i]), 64, 8);
      out[i] = packed_verdicts<mem::WideWord<8>>(oracle, table_universe(),
                                                 64, 8);
    }
    return out;
  }();
  return verdicts[mode];
}

/// Expects `fn` to throw std::invalid_argument whose message holds
/// `names`.
template <class Fn>
void expect_rejects(Fn fn, const std::string& names) {
  try {
    fn();
    ADD_FAILURE() << "no exception; expected one naming \"" << names << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
        << e.what();
  }
}

TEST(PlaneInit, DistinctPhasesForNeighbourPlanes) {
  const std::vector<gf::Elem> g{1, 1, 1};
  const auto p0 = plane_init(g, 0);
  const auto p1 = plane_init(g, 1);
  const auto p2 = plane_init(g, 2);
  EXPECT_NE(p0, p1);
  EXPECT_NE(p1, p2);
  // Period 3: plane 3 wraps to plane 0's phase.
  EXPECT_EQ(plane_init(g, 3), p0);
}

// plane_init and PiTester build a WordLfsr from their generator, so
// they reject what its constructor rejects.  With assert-only checks a
// Release build threw std::bad_alloc for plane_init({}, 3) and returned
// a state for plane_init({1, 5, 1}, 3).
TEST(PlaneInit, RejectsAMalformedGenerator) {
  expect_rejects([] { (void)plane_init({}, 3); }, "0 coefficient(s)");
  expect_rejects([] { (void)plane_init({1}, 0); }, "1 coefficient(s)");
  expect_rejects([] { (void)plane_init({1, 5, 1}, 3); },
                 "g1 = 5 is outside GF(2^1)");
  expect_rejects([] { (void)plane_init({0, 1, 1}, 0); }, "g0 = 0");
  expect_rejects([] { (void)PiTester(gf::GF2m(0b11), {1, 3, 1}); },
                 "g1 = 3 is outside GF(2^1)");
  expect_rejects([] { (void)PiTester(gf::GF2m(0b11), {0, 1, 1}); },
                 "g0 = 0");
  expect_rejects([] { (void)PiTester(gf::GF2m(0b11), {1, 1, 0}); },
                 "g2 = 0");
}

TEST(IntraWord, ParallelModePassesFaultFree) {
  mem::SimRam ram(64, 8);
  IntraWordConfig cfg;
  const IntraWordResult r = run_intra_word(ram, cfg);
  EXPECT_TRUE(r.pass);
  EXPECT_EQ(r.fin.size(), 8u);
}

TEST(IntraWord, RandomModePassesFaultFree) {
  mem::SimRam ram(64, 8);
  IntraWordConfig cfg;
  cfg.mode = IntraWordMode::kRandomTrajectories;
  cfg.seed = 17;
  const IntraWordResult r = run_intra_word(ram, cfg);
  EXPECT_TRUE(r.pass);
}

TEST(IntraWord, ParallelModeUsesWordAccesses) {
  // One write per cell + k reads per sub-iteration: 3n - 2 word ops.
  const mem::Addr n = 100;
  mem::SimRam ram(n, 4);
  IntraWordConfig cfg;
  (void)run_intra_word(ram, cfg);
  EXPECT_EQ(ram.total_stats().total(), 3u * n - 2);
}

TEST(IntraWord, RandomModeCostsPerPlane) {
  // m independent masked sweeps: read-modify-write inflates the word
  // operation count by ~m x; hardware masks instead (documented).
  const mem::Addr n = 50;
  mem::SimRam ram(n, 4);
  IntraWordConfig cfg;
  cfg.mode = IntraWordMode::kRandomTrajectories;
  (void)run_intra_word(ram, cfg);
  EXPECT_GT(ram.total_stats().total(), 4u * (3 * n - 2) / 2);
}

TEST(IntraWord, DetectsIntraWordCfIn) {
  // Aggressor bit 0 -> victim bit 1 inside the word.  The coupling
  // fires when the aggressor plane writes a 1 over the zeroed array
  // (cells with c mod 3 in {1, 2} for the period-3 plane pattern).
  for (mem::Addr cell : {5u, 17u, 40u}) {
    mem::FaultyRam ram(64, 8);
    ram.inject(mem::Fault::cf_in({cell, 1}, {cell, 0}));
    IntraWordConfig cfg;
    EXPECT_FALSE(run_intra_word(ram, cfg).pass) << "cell " << cell;
  }
}

TEST(IntraWord, DetectsIntraWordBridge) {
  mem::FaultyRam ram(64, 8);
  ram.inject(mem::Fault::bridge({9, 2}, {9, 3}, /*wired_and=*/true));
  IntraWordConfig cfg;
  EXPECT_FALSE(run_intra_word(ram, cfg).pass);
}

TEST(IntraWord, DetectsPlaneSaf) {
  // Plane 3 wraps to phase 0 of the period-3 plane LFSR (pattern
  // 0,1,1), so cell 9 (9 mod 3 = 0) expects 0 there: stuck-at-1
  // activates.
  mem::FaultyRam ram(32, 4);
  ram.inject(mem::Fault::saf({9, 3}, 1));
  IntraWordConfig cfg;
  EXPECT_FALSE(run_intra_word(ram, cfg).pass);
}

TEST(IntraWord, RandomModeDetectsIntraWordCfSt) {
  // Detection in random mode is per-seed probabilistic (the condition
  // must hold while the victim plane visits the cell); a small seed
  // sweep must find it.
  bool detected = false;
  for (std::uint64_t seed = 0; seed < 8 && !detected; ++seed) {
    mem::FaultyRam ram(64, 4);
    ram.inject(mem::Fault::cf_st({5, 2}, {5, 0}, /*when=*/1, /*forced=*/1));
    IntraWordConfig cfg;
    cfg.mode = IntraWordMode::kRandomTrajectories;
    cfg.seed = seed;
    detected = !run_intra_word(ram, cfg).pass;
  }
  EXPECT_TRUE(detected);
}

TEST(IntraWord, FinMatchesPlaneLfsrPrediction) {
  mem::SimRam ram(37, 4);
  IntraWordConfig cfg;
  const IntraWordResult r = run_intra_word(ram, cfg);
  EXPECT_EQ(r.fin, r.fin_expected);
  // Spot-check plane 0 against an explicit BOM LFSR.
  lfsr::WordLfsr model(gf::GF2m(0b11), cfg.plane_g);
  const auto init = plane_init(cfg.plane_g, 0);
  model.seed(init);
  model.jump(37 - 2);
  const std::uint32_t packed =
      static_cast<std::uint32_t>(model.state()[0]) |
      (static_cast<std::uint32_t>(model.state()[1]) << 1);
  EXPECT_EQ(r.fin[0], packed);
}

TEST(IntraWord, WiderGeneratorSupported) {
  mem::SimRam ram(64, 4);
  IntraWordConfig cfg;
  cfg.plane_g = {1, 1, 0, 1};  // k = 3, period 7
  const IntraWordResult r = run_intra_word(ram, cfg);
  EXPECT_TRUE(r.pass);
}

// The oracle reports the op count instead of counting each access, so
// pin it against the memory's own counters in both modes.
TEST(IntraWord, ReportedOpsMatchTheMemorysCounters) {
  for (const IntraWordMode mode : kModes) {
    for (const std::vector<gf::Elem>& g :
         {std::vector<gf::Elem>{1, 1, 1}, std::vector<gf::Elem>{1, 1, 0, 1}}) {
      mem::SimRam ram(41, 5);
      IntraWordConfig cfg;
      cfg.mode = mode;
      cfg.plane_g = g;
      const IntraWordResult r = run_intra_word(ram, cfg);
      EXPECT_EQ(r.reads, ram.total_stats().reads);
      EXPECT_EQ(r.writes, ram.total_stats().writes);
      EXPECT_EQ(IntraWordOracle(cfg, 41, 5).ops(), r.reads + r.writes);
    }
  }
}

// --- input checks (validate_intra_word) -----------------------------------

TEST(IntraWordValidate, RejectsNAtMostK) {
  // n <= k leaves no room for a sub-iteration; n = 1 would read past
  // the trajectory.
  IntraWordConfig cfg;
  mem::SimRam one(1, 8);
  expect_rejects([&] { (void)run_intra_word(one, cfg); }, "n = 1, k = 2");
  mem::SimRam two(2, 8);
  expect_rejects([&] { (void)run_intra_word(two, cfg); }, "n = 2, k = 2");
  mem::SimRam three(3, 8);
  EXPECT_TRUE(run_intra_word(three, cfg).pass);
}

TEST(IntraWordValidate, RejectsWidthOutsideTwoToThirtyTwo) {
  IntraWordConfig cfg;
  mem::SimRam bit(64, 1);
  expect_rejects([&] { (void)run_intra_word(bit, cfg); }, "m = 1");
  expect_rejects([&] { validate_intra_word(cfg, 64, 0); }, "m = 0");
  expect_rejects([&] { validate_intra_word(cfg, 64, 33); }, "m = 33");
  mem::SimRam wide(64, 32);
  EXPECT_TRUE(run_intra_word(wide, cfg).pass);
}

TEST(IntraWordValidate, RejectsGeneratorDegreeOutsideOneToThirtyTwo) {
  IntraWordConfig cfg;
  cfg.plane_g = {};
  expect_rejects([&] { validate_intra_word(cfg, 64, 8); }, "k = 0");
  cfg.plane_g = {1};
  expect_rejects([&] { validate_intra_word(cfg, 64, 8); }, "k = 0");
  // k = 33 would shift a Fin bit past the 32-bit packed word.
  cfg.plane_g.assign(34, 0);
  cfg.plane_g.front() = cfg.plane_g.back() = 1;
  expect_rejects([&] { validate_intra_word(cfg, 64, 8); }, "k = 33");
  cfg.plane_g.pop_back();
  cfg.plane_g.back() = 1;
  EXPECT_NO_THROW(validate_intra_word(cfg, 64, 8));
}

TEST(IntraWordValidate, RejectsZeroG0) {
  IntraWordConfig cfg;
  cfg.plane_g = {0, 1, 1};
  mem::SimRam ram(64, 8);
  expect_rejects([&] { (void)run_intra_word(ram, cfg); }, "g0 = 0");
}

TEST(IntraWordValidate, RejectsZeroGk) {
  IntraWordConfig cfg;
  cfg.plane_g = {1, 1, 0};
  mem::SimRam ram(64, 8);
  expect_rejects([&] { (void)run_intra_word(ram, cfg); }, "g2 = 0");
}

TEST(IntraWordValidate, RejectsCoefficientAboveOne) {
  IntraWordConfig cfg;
  cfg.plane_g = {1, 2, 1};
  mem::SimRam ram(64, 8);
  expect_rejects([&] { (void)run_intra_word(ram, cfg); }, "g1 = 2");
}

TEST(IntraWordValidate, OracleRejectsAMemoryOfAnotherGeometry) {
  const IntraWordOracle oracle(IntraWordConfig{}, 64, 8);
  mem::SimRam shorter(63, 8);
  expect_rejects([&] { (void)oracle.run(shorter); }, "run on n = 63, m = 8");
  mem::SimRam narrower(64, 4);
  expect_rejects([&] { (void)oracle.run(narrower); }, "run on n = 64, m = 4");
}

TEST(IntraWordValidate, PackedRunRejectsARamOfAnotherGeometry) {
  const IntraWordOracle oracle(IntraWordConfig{}, 64, 8);
  mem::PackedFaultRam shorter(63, 8);
  expect_rejects([&] { (void)oracle.run_packed(shorter); },
                 "built for n = 64, m = 8, run on n = 63, m = 8");
  mem::PackedFaultRamT<mem::WideWord<8>> narrower(64, 4);
  expect_rejects([&] { (void)oracle.run_packed(narrower); },
                 "built for n = 64, m = 8, run on n = 64, m = 4");
}

// --- the compiled oracle ----------------------------------------------------

// The table prints rounded percentages, which would hide a shift of one
// fault; pin the exact counts.
TEST(IntraWordOracle, TableUniverseCounts) {
  ASSERT_EQ(table_universe().size(), 2688u);
  const std::size_t expected_detected[] = {1344, 511};
  const std::uint64_t expected_ops[] = {190, 2032};
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(IntraWordOracle(table_config(kModes[i]), 64, 8).ops(),
              expected_ops[i]);
    const std::vector<Verdict>& verdicts = table_verdicts(i);
    EXPECT_EQ(std::count_if(verdicts.begin(), verdicts.end(),
                            [](const Verdict& v) { return !v.first; }),
              expected_detected[i]);
    const std::vector<char>& packed = table_packed_verdicts(i);
    EXPECT_EQ(std::count(packed.begin(), packed.end(), 1),
              expected_detected[i]);
  }
}

TEST(IntraWordOracle, ReusedRamMatchesAFreshRunPerFault) {
  const std::vector<mem::Fault>& universe = table_universe();
  for (std::size_t i = 0; i < 2; ++i) {
    const IntraWordConfig cfg = table_config(kModes[i]);
    for (std::size_t f = 0; f < universe.size(); ++f) {
      mem::FaultyRam fresh(64, 8);
      fresh.inject(universe[f]);
      const IntraWordResult want = run_intra_word(fresh, cfg);
      ASSERT_EQ(table_verdicts(i)[f], Verdict(want.pass, want.fin))
          << universe[f].describe();
    }
  }
}

// --- the packed replay --------------------------------------------------

// Every table fault, both modes, both lane words: the lane's verdict is
// the scalar run's.
TEST(IntraWordPacked, TableVerdictsMatchTheScalarRun) {
  const std::vector<mem::Fault>& universe = table_universe();
  for (std::size_t i = 0; i < 2; ++i) {
    const IntraWordOracle oracle(table_config(kModes[i]), 64, 8);
    const std::vector<char> narrow =
        packed_verdicts<mem::LaneWord>(oracle, universe, 64, 8);
    const std::vector<char>& wide = table_packed_verdicts(i);
    for (std::size_t f = 0; f < universe.size(); ++f) {
      const char want = table_verdicts(i)[f].first ? 0 : 1;
      ASSERT_EQ(narrow[f], want) << "64 lanes, mode " << i << ", "
                                 << universe[f].describe();
      ASSERT_EQ(wide[f], want) << "512 lanes, mode " << i << ", "
                               << universe[f].describe();
    }
  }
}

// Random tests on random geometries: m in [2, 32], n in [8, 127], a
// random plane generator of degree k in [1, 6], random mode, trajectory
// and seed.  Each universe mixes every kind make_universe emits (NPSF
// on a 4-column grid when 4 divides n) with retention faults of delay
// 1..3000; a sample of it runs on the scalar reference and on both
// lane words.  The sample shrinks as one run's op count grows, so no
// axis is narrowed to bound the scalar reference's cost: 16 faults of
// a random-mode test at m = 32, 256 of a small parallel-mode one.
TEST(IntraWordPacked, MatchesTheScalarRunOnRandomGeometries) {
  Xoshiro256 rng(0x1a7e5);
  auto coin = [&] { return rng.below(2) == 1; };
  constexpr int kDraws = 40;
  constexpr std::uint64_t kScalarOpsPerDraw = 100000;
  for (int draw = 0; draw < kDraws; ++draw) {
    const auto m = static_cast<unsigned>(2 + rng.below(31));
    const auto n = static_cast<mem::Addr>(8 + rng.below(120));
    const auto k = static_cast<unsigned>(1 + rng.below(6));
    IntraWordConfig cfg;
    cfg.plane_g.assign(k + 1, 0);
    cfg.plane_g.front() = cfg.plane_g.back() = 1;
    for (unsigned j = 1; j < k; ++j) {
      cfg.plane_g[j] = static_cast<gf::Elem>(rng.below(2));
    }
    cfg.mode = kModes[rng.below(2)];
    cfg.trajectory = static_cast<TrajectoryKind>(rng.below(3));
    cfg.seed = rng();

    mem::UniverseOptions u;
    u.single_cell = coin();
    u.read_logic = coin();
    u.coupling = coin();
    u.bridges = coin();
    u.address_decoder = coin();
    u.intra_word = coin();
    u.coupling_pair_limit = 4 + rng.below(60);
    u.seed = rng();
    if (n % 4 == 0 && coin()) {
      u.npsf = true;
      u.npsf_grid_cols = 4;
    }
    std::vector<mem::Fault> universe = mem::make_universe(n, m, u);
    const std::uint64_t retention = 1 + rng.below(40);
    for (std::uint64_t i = 0; i < retention; ++i) {
      const mem::BitRef victim{static_cast<mem::Addr>(rng.below(n)),
                               static_cast<unsigned>(rng.below(m))};
      const auto decays_to = static_cast<unsigned>(rng.below(2));
      const std::uint64_t delay = 1 + rng.below(3000);
      universe.push_back(mem::Fault::retention(victim, decays_to, delay));
    }
    const IntraWordOracle oracle(cfg, n, m);
    // A sample, not the whole universe: the scalar reference costs one
    // run per fault, the packed replay one per sweep.
    const std::uint64_t size =
        std::clamp<std::uint64_t>(kScalarOpsPerDraw / oracle.ops(), 16, 256);
    std::vector<mem::Fault> sample;
    for (std::uint64_t i = 0; i < size; ++i) {
      sample.push_back(universe[rng.below(universe.size())]);
    }

    std::vector<char> want(sample.size());
    mem::FaultyRam ram(n, m);
    for (std::size_t f = 0; f < sample.size(); ++f) {
      ram.reset(sample[f]);
      want[f] = oracle.run(ram).pass ? 0 : 1;
    }
    const std::vector<char> narrow =
        packed_verdicts<mem::LaneWord>(oracle, sample, n, m);
    const std::vector<char> wide =
        packed_verdicts<mem::WideWord<8>>(oracle, sample, n, m);
    for (std::size_t f = 0; f < sample.size(); ++f) {
      ASSERT_EQ(narrow[f], want[f])
          << "draw " << draw << " (n = " << n << ", m = " << m
          << ", k = " << k << "), 64 lanes, " << sample[f].describe();
      ASSERT_EQ(wide[f], want[f])
          << "draw " << draw << " (n = " << n << ", m = " << m
          << ", k = " << k << "), 512 lanes, " << sample[f].describe();
    }
  }
}

// Workers share one oracle: 64-lane batches on the shared pool give the
// serial 512-lane verdicts.  Under TSan this is the check that the
// packed read path shares nothing mutable.
TEST(IntraWordPacked, SharedAcrossPoolBatchesMatchesSerial) {
  const std::vector<mem::Fault>& universe = table_universe();
  for (std::size_t i = 0; i < 2; ++i) {
    const IntraWordOracle oracle(table_config(kModes[i]), 64, 8);
    std::vector<char> pooled(universe.size(), 0);
    util::shared_pool(4).parallel_for_batches(
        universe.size(), mem::PackedFaultRam::kLanes,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          mem::PackedFaultRam ram(64, 8);
          for (std::size_t f = begin; f < end; ++f) ram.add_fault(universe[f]);
          const PackedVerdict v = oracle.run_packed(ram);
          for (std::size_t f = begin; f < end; ++f) {
            pooled[f] =
                v.lane_detected(static_cast<unsigned>(f - begin)) ? 1 : 0;
          }
        });
    EXPECT_EQ(pooled, table_packed_verdicts(i));
  }
}

}  // namespace
}  // namespace prt::core
