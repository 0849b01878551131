// Cross-module property tests.
//
// The two load-bearing properties of any BIST scheme:
//  1. *No false positives* — on a fault-free memory, every scheme in
//     every configuration must pass (a self-test that cries wolf is
//     unusable silicon);
//  2. *Linearity of error propagation* — the pi-test is GF-linear, so
//     the Fin corruption of a write error is the XOR of the
//     corruptions of its bit components (the property underlying the
//     Markov model's "activation == detection" step).
#include <gtest/gtest.h>

#include "core/intra_word.hpp"
#include "core/prt_engine.hpp"
#include "core/prt_multiport.hpp"
#include "mem/fault_injector.hpp"
#include "mem/sram.hpp"
#include "util/rng.hpp"

namespace prt {
namespace {

// --- property 1: no false positives --------------------------------

struct Geometry {
  mem::Addr n;
  unsigned m;
};

class NoFalsePositives : public ::testing::TestWithParam<Geometry> {};

TEST_P(NoFalsePositives, StandardScheme) {
  const auto [n, m] = GetParam();
  mem::SimRam ram(n, m);
  const core::PrtScheme scheme = m == 1 ? core::standard_scheme_bom(n)
                                        : core::standard_scheme_wom(n, m);
  EXPECT_FALSE(core::run_prt(ram, scheme).detected());
}

TEST_P(NoFalsePositives, ExtendedScheme) {
  const auto [n, m] = GetParam();
  mem::SimRam ram(n, m);
  const core::PrtScheme scheme = m == 1 ? core::extended_scheme_bom(n)
                                        : core::extended_scheme_wom(n, m);
  EXPECT_FALSE(core::run_prt(ram, scheme).detected());
}

TEST_P(NoFalsePositives, RandomizedIterations) {
  const auto [n, m] = GetParam();
  const gf::GF2m field = m == 1 ? gf::GF2m(0b11) : gf::GF2m::standard(m);
  Xoshiro256 rng(n * 31 + m);
  for (int trial = 0; trial < 25; ++trial) {
    mem::SimRam ram(n, m);
    core::PrtScheme s;
    s.field_modulus = field.modulus();
    core::SchemeIteration it;
    // Random generator: checkerboard or a random invertible pair.
    if (rng.chance(1, 2)) {
      it.g = {1, 0, 1};
    } else {
      it.g = {1, static_cast<gf::Elem>(rng.below(field.size())),
              static_cast<gf::Elem>(1 + rng.below(field.size() - 1))};
    }
    it.config.init = {static_cast<gf::Elem>(rng.below(field.size())),
                      static_cast<gf::Elem>(rng.below(field.size()))};
    it.config.trajectory = static_cast<core::TrajectoryKind>(rng.below(3));
    it.config.seed = rng();
    it.config.verify_pass = rng.chance(1, 2);
    s.iterations = {it};
    if (rng.chance(1, 4)) s.misr_poly = 0b1000011;
    EXPECT_FALSE(core::run_prt(ram, s).detected())
        << "n=" << n << " m=" << m << " trial=" << trial;
  }
}

TEST_P(NoFalsePositives, MultiPortSchemes) {
  const auto [n, m] = GetParam();
  const gf::GF2m field = m == 1 ? gf::GF2m(0b11) : gf::GF2m::standard(m);
  const auto g = m == 4 && field.modulus() == 0b10011
                     ? std::vector<gf::Elem>{1, 2, 2}
                     : std::vector<gf::Elem>{1, 1, 1};
  const core::PiTester tester(field, g);
  core::PiConfig cfg;
  cfg.init = {0, 1};
  mem::SimRam r2(n, m, 2);
  EXPECT_TRUE(core::run_pi_dualport(r2, tester, cfg).pass);
  mem::SimRam r4(n, m, 4);
  EXPECT_TRUE(core::run_pi_quadport(r4, tester, cfg).pass);
  if (n / 2 > 2) {
    mem::SimRam r4b(n, m, 4);
    EXPECT_TRUE(core::run_pi_multilfsr(r4b, tester, cfg).pass);
  }
}

TEST_P(NoFalsePositives, IntraWordModes) {
  const auto [n, m] = GetParam();
  if (m < 2) GTEST_SKIP() << "intra-word testing needs m >= 2";
  for (auto mode : {core::IntraWordMode::kParallelTrajectories,
                    core::IntraWordMode::kRandomTrajectories}) {
    mem::SimRam ram(n, m);
    core::IntraWordConfig cfg;
    cfg.mode = mode;
    cfg.seed = 3;
    EXPECT_TRUE(core::run_intra_word(ram, cfg).pass);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, NoFalsePositives,
    ::testing::Values(Geometry{16, 1}, Geometry{17, 1}, Geometry{64, 1},
                      Geometry{255, 1}, Geometry{16, 4}, Geometry{63, 4},
                      Geometry{32, 8}, Geometry{24, 16}),
    [](const ::testing::TestParamInfo<Geometry>& geometry) {
      std::string name = "n";
      name += std::to_string(geometry.param.n);
      name += 'm';
      name += std::to_string(geometry.param.m);
      return name;
    });

// --- property 2: linear error propagation ----------------------------

/// Runs a pi-iteration during which the cell at `victim` is forcibly
/// XORed with `delta` right after its sweep write, and returns the
/// packed Fin error relative to the clean run.
std::uint64_t fin_error_for_delta(mem::Addr victim, gf::Elem delta) {
  const gf::GF2m field(0b10011);
  const core::PiTester tester(field, {1, 2, 2});
  core::PiConfig cfg;
  cfg.init = {0, 1};
  const mem::Addr n = 64;

  mem::SimRam clean(n, 4);
  const core::PiResult base = tester.run(clean, cfg);

  // Manual sweep replication with the injected delta (simulating a
  // one-shot disturbance between the victim's write and its reads).
  mem::SimRam ram(n, 4);
  core::Trajectory traj =
      core::Trajectory::make(core::TrajectoryKind::kAscending, n);
  ram.write(0, cfg.init[0], 0);
  ram.write(1, cfg.init[1], 0);
  if (victim <= 1) ram.poke(victim, ram.peek(victim) ^ delta);
  std::vector<gf::Elem> window(2);
  for (mem::Addr q = 0; q + 2 < n; ++q) {
    window[0] = static_cast<gf::Elem>(ram.read(q, 0));
    window[1] = static_cast<gf::Elem>(ram.read(q + 1, 0));
    const gf::Elem fb = tester.feedback_of(window);
    ram.write(q + 2, fb, 0);
    if (q + 2 == victim) ram.poke(victim, ram.peek(victim) ^ delta);
  }
  const std::uint64_t fin =
      ram.peek(n - 2) | (static_cast<std::uint64_t>(ram.peek(n - 1)) << 4);
  const std::uint64_t fin_base =
      base.fin[0] | (static_cast<std::uint64_t>(base.fin[1]) << 4);
  return fin ^ fin_base;
}

TEST(LinearPropagation, FinErrorIsLinearInTheInjectedDelta) {
  for (mem::Addr victim : {2u, 17u, 40u, 61u}) {
    for (gf::Elem d1 : {1u, 2u, 9u}) {
      for (gf::Elem d2 : {4u, 5u}) {
        const auto e1 = fin_error_for_delta(victim, d1);
        const auto e2 = fin_error_for_delta(victim, d2);
        const auto e12 =
            fin_error_for_delta(victim, static_cast<gf::Elem>(d1 ^ d2));
        EXPECT_EQ(e12, e1 ^ e2)
            << "victim " << victim << " d1 " << d1 << " d2 " << d2;
      }
    }
  }
}

TEST(LinearPropagation, SingleDeltaNeverAliases) {
  // A non-zero disturbance anywhere always corrupts Fin: the error
  // state evolves through a non-singular LFSR and cannot return to
  // zero — the "activation == detection" step of the Markov model.
  for (mem::Addr victim = 2; victim + 2 < 64; victim += 3) {
    for (gf::Elem delta = 1; delta < 16; delta += 5) {
      EXPECT_NE(fin_error_for_delta(victim, delta), 0u)
          << "victim " << victim << " delta " << delta;
    }
  }
}

}  // namespace
}  // namespace prt
