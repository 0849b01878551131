// Tests for the word-oriented LFSR reference model (lfsr/lfsr) — the
// paper's virtual automaton.
#include "lfsr/lfsr.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace prt::lfsr {
namespace {

using gf::Elem;

/// Expects building an LFSR from `g` over `field` to throw
/// std::invalid_argument whose message holds `names`.
void expect_rejected(const gf::GF2m& field, std::vector<Elem> g,
                     const std::string& names) {
  try {
    const WordLfsr l(field, std::move(g));
    ADD_FAILURE() << "no exception; expected one naming \"" << names
                  << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos)
        << e.what();
  }
}

TEST(Fig1a, BomSequenceMatchesPaper) {
  // g = 1 + x + x^2 over GF(2): the memory image is the period-3
  // pattern d0, d1, d0^d1 of Fig. 1a.
  WordLfsr l = fig1a_bom_lfsr();
  const std::vector<Elem> seed{1, 1};
  l.seed(seed);
  EXPECT_EQ(l.sequence(9), (std::vector<Elem>{1, 1, 0, 1, 1, 0, 1, 1, 0}));
}

TEST(Fig1a, PeriodIsThree) {
  WordLfsr l = fig1a_bom_lfsr();
  EXPECT_EQ(l.algebraic_period(), 3u);
  EXPECT_EQ(l.max_period(), 3u);
  EXPECT_TRUE(l.is_primitive());
}

TEST(Fig1b, WomSequenceMatchesPaper) {
  // Fig. 1b: cells hold 0, 1, 2, 6, ... for g = 1 + 2x + 2x^2 over
  // GF(2^4), p = 1 + z + z^4, Init = (0, 1).
  WordLfsr l = fig1b_wom_lfsr();
  const std::vector<Elem> seed{0, 1};
  l.seed(seed);
  const auto seq = l.sequence(8);
  EXPECT_EQ(seq[0], 0u);
  EXPECT_EQ(seq[1], 1u);
  EXPECT_EQ(seq[2], 2u);   // 2*1 + 2*0 = z
  EXPECT_EQ(seq[3], 6u);   // 2*2 + 2*1 = z^2 + z
  EXPECT_EQ(seq[4], 8u);   // 2*6 + 2*2 = z^3
  EXPECT_EQ(seq[5], 0xFu); // 2*8 + 2*6 = (z+1) + (z^3+z^2) = z^3+z^2+z+1
}

TEST(Fig1b, PeriodIs255AndPrimitive) {
  WordLfsr l = fig1b_wom_lfsr();
  EXPECT_EQ(l.algebraic_period(), 255u);
  EXPECT_EQ(l.max_period(), 255u);
  EXPECT_TRUE(l.is_primitive());
  EXPECT_TRUE(l.is_irreducible());
}

TEST(Fig1b, RingClosesAfterPeriodSteps) {
  WordLfsr l = fig1b_wom_lfsr();
  const std::vector<Elem> seed{0, 1};
  l.seed(seed);
  EXPECT_EQ(l.cycle_length(), std::optional<std::uint64_t>{255});
}

TEST(WordLfsr, StepMatchesFeedbackOfState) {
  WordLfsr l = fig1b_wom_lfsr();
  const std::vector<Elem> seed{7, 9};
  l.seed(seed);
  for (int i = 0; i < 50; ++i) {
    const Elem fb = l.feedback(l.state());
    EXPECT_EQ(l.step(), fb);
  }
}

TEST(WordLfsr, SequenceSatisfiesRecurrence) {
  WordLfsr l = fig1b_wom_lfsr();
  const gf::GF2m& f = l.field();
  const std::vector<Elem> seed{3, 12};
  l.seed(seed);
  const auto s = l.sequence(100);
  for (std::size_t i = 2; i < s.size(); ++i) {
    EXPECT_EQ(s[i], f.add(f.mul(2, s[i - 1]), f.mul(2, s[i - 2])));
  }
}

TEST(WordLfsr, ZeroStateStaysZero) {
  WordLfsr l = fig1b_wom_lfsr();
  const std::vector<Elem> seed{0, 0};
  l.seed(seed);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(l.step(), 0u);
}

TEST(WordLfsr, DefaultSeedIsNonDegenerate) {
  WordLfsr l = fig1b_wom_lfsr();
  bool any_nonzero = false;
  for (int i = 0; i < 5; ++i) any_nonzero |= l.step() != 0;
  EXPECT_TRUE(any_nonzero);
}

TEST(WordLfsr, CycleLengthDividesAlgebraicPeriod) {
  // For an irreducible g every non-zero state lies on one cycle whose
  // length is exactly the algebraic period.
  WordLfsr l = fig1b_wom_lfsr();
  for (Elem a : {1u, 5u, 9u}) {
    const std::vector<Elem> seed{a, static_cast<Elem>(15 - a)};
    l.seed(seed);
    EXPECT_EQ(l.cycle_length().value(), l.algebraic_period());
  }
}

TEST(WordLfsr, CheckerboardCycleLengthIsTwo) {
  WordLfsr l(gf::GF2m(0b10011), {1, 0, 1});
  const std::vector<Elem> seed{0, 15};
  l.seed(seed);
  EXPECT_EQ(l.cycle_length().value(), 2u);
  EXPECT_EQ(l.algebraic_period(), 2u);
  EXPECT_FALSE(l.is_primitive());
}

TEST(WordLfsr, DegreeThreeGenerator) {
  // g = 1 + x + x^3 over GF(2), primitive, period 7.
  WordLfsr l(gf::GF2m(0b11), {1, 1, 0, 1});
  EXPECT_EQ(l.k(), 3u);
  EXPECT_EQ(l.algebraic_period(), 7u);
  const std::vector<Elem> seed{1, 0, 0};
  l.seed(seed);
  EXPECT_EQ(l.cycle_length().value(), 7u);
}

TEST(TransitionMatrix, OneStepAgreesWithStep) {
  WordLfsr l = fig1b_wom_lfsr();
  const gf::MatrixGF2 t = l.transition_matrix_gf2();
  const std::vector<Elem> seed{11, 4};
  l.seed(seed);
  const std::uint64_t packed = l.pack_state(l.state());
  WordLfsr stepped = l;
  stepped.step();
  EXPECT_EQ(t.mul_vec64(packed), stepped.pack_state(stepped.state()));
}

TEST(TransitionMatrix, MatrixOrderEqualsPeriod) {
  WordLfsr l = fig1a_bom_lfsr();
  const gf::MatrixGF2 t = l.transition_matrix_gf2();
  EXPECT_TRUE(t.pow(3).is_identity());
  EXPECT_FALSE(t.pow(1).is_identity());
  EXPECT_FALSE(t.pow(2).is_identity());
}

TEST(TransitionMatrix, Fig1bMatrixOrderIs255) {
  WordLfsr l = fig1b_wom_lfsr();
  const gf::MatrixGF2 t = l.transition_matrix_gf2();
  EXPECT_TRUE(t.pow(255).is_identity());
  EXPECT_FALSE(t.pow(85).is_identity());
  EXPECT_FALSE(t.pow(51).is_identity());
}

TEST(Jump, MatchesNaiveStepping) {
  for (std::uint64_t t : {0ULL, 1ULL, 2ULL, 17ULL, 254ULL, 255ULL, 1000ULL}) {
    WordLfsr jumped = fig1b_wom_lfsr();
    WordLfsr stepped = fig1b_wom_lfsr();
    const std::vector<Elem> seed{0, 1};
    jumped.seed(seed);
    stepped.seed(seed);
    jumped.jump(t);
    for (std::uint64_t i = 0; i < t; ++i) stepped.step();
    EXPECT_EQ(std::vector<Elem>(jumped.state().begin(), jumped.state().end()),
              std::vector<Elem>(stepped.state().begin(),
                                stepped.state().end()))
        << "t=" << t;
  }
}

TEST(Jump, LargeJumpUsesPeriodicity) {
  WordLfsr a = fig1b_wom_lfsr();
  WordLfsr b = fig1b_wom_lfsr();
  const std::vector<Elem> seed{2, 6};
  a.seed(seed);
  b.seed(seed);
  a.jump(1'000'000'007ULL);
  b.jump(1'000'000'007ULL % 255);
  EXPECT_EQ(std::vector<Elem>(a.state().begin(), a.state().end()),
            std::vector<Elem>(b.state().begin(), b.state().end()));
}

TEST(PackState, RoundTrip) {
  WordLfsr l = fig1b_wom_lfsr();
  const std::vector<Elem> s{0xA, 0x5};
  EXPECT_EQ(l.unpack_state(l.pack_state(s)), s);
  EXPECT_EQ(l.pack_state(s), 0x5Au);  // element 0 in low bits
}

// The generator checks must hold in every build: with assert-only
// checks a Release build sized the state to k = g.size() - 1 = 2^32 - 1
// for an empty generator (std::bad_alloc) and ran a GF(2) automaton
// with a coefficient of 5.
TEST(WordLfsr, RejectsDegreeBelowOne) {
  expect_rejected(gf::GF2m(0b11), {}, "0 coefficient(s)");
  expect_rejected(gf::GF2m(0b11), {1}, "1 coefficient(s)");
  EXPECT_NO_THROW(WordLfsr(gf::GF2m(0b11), {1, 1}));
}

TEST(WordLfsr, RejectsZeroG0AndZeroGk) {
  expect_rejected(gf::GF2m(0b11), {0, 1, 1}, "g0 = 0");
  expect_rejected(gf::GF2m(0b10011), {2, 2, 0}, "g2 = 0");
  expect_rejected(gf::GF2m(0b10011), {0, 0}, "g0 = 0");
}

TEST(WordLfsr, RejectsACoefficientOutsideTheField) {
  expect_rejected(gf::GF2m(0b11), {1, 5, 1}, "g1 = 5 is outside GF(2^1)");
  expect_rejected(gf::GF2m(0b10011), {1, 2, 16}, "g2 = 16 is outside GF(2^4)");
  EXPECT_NO_THROW(WordLfsr(gf::GF2m(0b10011), {1, 2, 15}));
}

TEST(MaxPeriod, QKMinusOne) {
  EXPECT_EQ(fig1a_bom_lfsr().max_period(), 3u);
  EXPECT_EQ(fig1b_wom_lfsr().max_period(), 255u);
  WordLfsr l(gf::GF2m::standard(8), {1, 1, 1});
  EXPECT_EQ(l.max_period(), 65535u);
}

TEST(Sequence, FirstKElementsAreTheSeed) {
  WordLfsr l = fig1b_wom_lfsr();
  const std::vector<Elem> seed{9, 3};
  l.seed(seed);
  const auto s = l.sequence(2);
  EXPECT_EQ(s, seed);
}

}  // namespace
}  // namespace prt::lfsr
