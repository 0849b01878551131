// Tests for constant-multiplier XOR-network synthesis (gf/const_mult) —
// the paper's "optimal scheme of multiplication by a constant in GF".
#include "gf/const_mult.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/rng.hpp"

namespace prt::gf {
namespace {

/// Paar's greedy scan as it ran before the per-signal row masks: each
/// candidate pair counted by searching every row for both signals.  The
/// library's synthesize_cse must build this network gate for gate.
XorNetwork reference_cse(const MatrixGF2& matrix) {
  XorNetwork net;
  net.inputs = static_cast<std::uint32_t>(matrix.cols());
  net.outputs.resize(matrix.rows(), XorNetwork::kGroundSignal);
  std::vector<std::vector<std::uint32_t>> rows(matrix.rows());
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      if (matrix.get(r, c)) rows[r].push_back(static_cast<std::uint32_t>(c));
    }
  }
  while (true) {
    std::uint32_t best_a = 0;
    std::uint32_t best_b = 0;
    int best_count = 1;
    for (const auto& row : rows) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        for (std::size_t j = i + 1; j < row.size(); ++j) {
          const std::uint32_t a = row[i];
          const std::uint32_t b = row[j];
          int count = 0;
          for (const auto& other : rows) {
            const bool has_a =
                std::find(other.begin(), other.end(), a) != other.end();
            const bool has_b =
                std::find(other.begin(), other.end(), b) != other.end();
            if (has_a && has_b) ++count;
          }
          if (count > best_count) {
            best_count = count;
            best_a = a;
            best_b = b;
          }
        }
      }
    }
    if (best_count < 2) break;
    net.gates.push_back({best_a, best_b});
    const std::uint32_t fresh =
        net.inputs + static_cast<std::uint32_t>(net.gates.size() - 1);
    for (auto& row : rows) {
      auto ia = std::find(row.begin(), row.end(), best_a);
      auto ib = std::find(row.begin(), row.end(), best_b);
      if (ia != row.end() && ib != row.end()) {
        if (ia < ib) std::swap(ia, ib);
        row.erase(ia);
        row.erase(ib);
        row.push_back(fresh);
      }
    }
  }
  // The output trees: synthesize_naive's balanced pairing over each
  // row's remaining signals.
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::uint32_t> sigs = std::move(rows[r]);
    if (sigs.empty()) continue;
    while (sigs.size() > 1) {
      std::vector<std::uint32_t> next;
      for (std::size_t i = 0; i + 1 < sigs.size(); i += 2) {
        net.gates.push_back({sigs[i], sigs[i + 1]});
        next.push_back(net.inputs +
                       static_cast<std::uint32_t>(net.gates.size() - 1));
      }
      if (sigs.size() % 2 == 1) next.push_back(sigs.back());
      sigs = std::move(next);
    }
    net.outputs[r] = sigs[0];
  }
  return net;
}

/// Expects `net` to equal `want` gate for gate and output for output.
void expect_same_network(const XorNetwork& net, const XorNetwork& want,
                         const std::string& what) {
  ASSERT_EQ(net.inputs, want.inputs) << what;
  ASSERT_EQ(net.gates.size(), want.gates.size()) << what;
  for (std::size_t i = 0; i < want.gates.size(); ++i) {
    ASSERT_EQ(net.gates[i].a, want.gates[i].a) << what << " gate " << i;
    ASSERT_EQ(net.gates[i].b, want.gates[i].b) << what << " gate " << i;
  }
  ASSERT_EQ(net.outputs, want.outputs) << what;
}

TEST(MultiplierMatrix, MultiplyByOneIsIdentity) {
  const GF2m f(0b10011);
  EXPECT_TRUE(multiplier_matrix(f, 1).is_identity());
}

TEST(MultiplierMatrix, MatrixActionMatchesFieldMul) {
  const GF2m f(0b10011);
  for (Elem c = 0; c < 16; ++c) {
    const MatrixGF2 mat = multiplier_matrix(f, c);
    for (Elem x = 0; x < 16; ++x) {
      EXPECT_EQ(mat.mul_vec64(x), f.mul(c, x)) << "c=" << +c << " x=" << +x;
    }
  }
}

TEST(MultiplierMatrix, NonZeroConstantGivesInvertibleMatrix) {
  const GF2m f = GF2m::standard(8);
  for (Elem c : {1u, 2u, 3u, 0x53u, 0xffu}) {
    EXPECT_EQ(multiplier_matrix(f, c).rank(), 8u) << "c=" << c;
  }
  EXPECT_EQ(multiplier_matrix(f, 0).rank(), 0u);
}

TEST(XorNetwork, EvalOfEmptyNetworkIsGround) {
  XorNetwork net;
  net.inputs = 4;
  net.outputs = {XorNetwork::kGroundSignal, 0, 1, 2};
  EXPECT_EQ(net.eval(0b1111), 0b1110u);
  EXPECT_EQ(net.depth(), 0u);
}

// eval packs the inputs and the outputs into one 64-bit word each, so
// a network past 64 of either is refused by name rather than shifted
// out of range (undefined, and reported as such under UBSan).  Up to 64
// it still computes the matrix's map.
TEST(XorNetwork, EvalRejectsNetworksWiderThanItsWord) {
  Xoshiro256 rng(70);
  auto random_matrix = [&](std::size_t rows, std::size_t cols) {
    MatrixGF2 mat(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) mat.set(r, c, rng.below(2) == 1);
    }
    return mat;
  };
  const auto message_of = [](const XorNetwork& net) -> std::string {
    try {
      (void)net.eval(1);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  const MatrixGF2 tall = random_matrix(70, 3);
  const MatrixGF2 wide = random_matrix(3, 70);
  for (const XorNetwork& net : {synthesize_naive(tall), synthesize_cse(tall)}) {
    EXPECT_NE(message_of(net).find("70 outputs"), std::string::npos)
        << message_of(net);
  }
  for (const XorNetwork& net : {synthesize_naive(wide), synthesize_cse(wide)}) {
    EXPECT_NE(message_of(net).find("70 inputs"), std::string::npos)
        << message_of(net);
  }
  const MatrixGF2 tall64 = random_matrix(64, 3);
  const MatrixGF2 wide64 = random_matrix(3, 64);
  for (const MatrixGF2* mat : {&tall64, &wide64}) {
    const XorNetwork naive = synthesize_naive(*mat);
    const XorNetwork cse = synthesize_cse(*mat);
    for (int x = 0; x < 16; ++x) {
      const std::uint64_t in =
          rng() & ((std::uint64_t{1} << (mat->cols() - 1) << 1) - 1);
      ASSERT_EQ(naive.eval(in), mat->mul_vec64(in)) << mat->rows();
      ASSERT_EQ(cse.eval(in), mat->mul_vec64(in)) << mat->rows();
    }
  }
}

TEST(SynthesizeNaive, RealizesTheMatrix) {
  const GF2m f(0b10011);
  for (Elem c = 1; c < 16; ++c) {
    const MatrixGF2 mat = multiplier_matrix(f, c);
    const XorNetwork net = synthesize_naive(mat);
    for (Elem x = 0; x < 16; ++x) {
      EXPECT_EQ(net.eval(x), f.mul(c, x)) << "c=" << +c << " x=" << +x;
    }
  }
}

TEST(SynthesizeCse, RealizesTheMatrix) {
  const GF2m f(0b10011);
  for (Elem c = 1; c < 16; ++c) {
    const MatrixGF2 mat = multiplier_matrix(f, c);
    const XorNetwork net = synthesize_cse(mat);
    for (Elem x = 0; x < 16; ++x) {
      EXPECT_EQ(net.eval(x), f.mul(c, x)) << "c=" << +c << " x=" << +x;
    }
  }
}

TEST(SynthesizeCse, NeverWorseThanNaive) {
  for (unsigned m : {4u, 8u}) {
    const GF2m f = GF2m::standard(m);
    for (Elem c = 1; c < f.size(); ++c) {
      const MatrixGF2 mat = multiplier_matrix(f, c);
      EXPECT_LE(synthesize_cse(mat).gate_count(),
                synthesize_naive(mat).gate_count())
          << "m=" << m << " c=" << +c;
    }
  }
}

TEST(SynthesizeCse, SharesCommonPairs) {
  // Matrix with rows {x0^x1^x2, x0^x1^x3}: naive needs 4 gates, CSE
  // materializes x0^x1 once -> 3 gates.
  MatrixGF2 mat(2, 4);
  mat.set(0, 0, true);
  mat.set(0, 1, true);
  mat.set(0, 2, true);
  mat.set(1, 0, true);
  mat.set(1, 1, true);
  mat.set(1, 3, true);
  EXPECT_EQ(synthesize_naive(mat).gate_count(), 4u);
  const XorNetwork cse = synthesize_cse(mat);
  EXPECT_EQ(cse.gate_count(), 3u);
  for (std::uint64_t x = 0; x < 16; ++x) {
    unsigned r0 = ((x >> 0) ^ (x >> 1) ^ (x >> 2)) & 1U;
    unsigned r1 = ((x >> 0) ^ (x >> 1) ^ (x >> 3)) & 1U;
    EXPECT_EQ(cse.eval(x), (static_cast<std::uint64_t>(r1) << 1) | r0);
  }
}

TEST(SynthesizeNaive, SingleTapRowNeedsNoGates) {
  // Multiplying by 1 is wiring only.
  const GF2m f(0b10011);
  const XorNetwork net = synthesize_naive(multiplier_matrix(f, 1));
  EXPECT_EQ(net.gate_count(), 0u);
  EXPECT_EQ(net.depth(), 0u);
}

TEST(XorNetworkDepth, BalancedTreeDepthIsLogarithmic) {
  // A row XORing 8 inputs must have depth 3 with balanced trees.
  MatrixGF2 mat(1, 8);
  for (std::size_t c = 0; c < 8; ++c) mat.set(0, c, true);
  const XorNetwork net = synthesize_naive(mat);
  EXPECT_EQ(net.gate_count(), 7u);
  EXPECT_EQ(net.depth(), 3u);
}

TEST(FeedbackCost, PaperGenerator) {
  // g = 1 + 2x + 2x^2 over GF(16): two multiplications by 2 plus one
  // word adder (4 XORs).  Multiplying by z in GF(16)/z^4+z+1 is one XOR
  // (bit3 folds into bits 0 and 1 -> matrix rows with 2 taps on two
  // rows): count whatever CSE finds, but the total must stay small and
  // the adder contributes exactly (2-1)*4.
  const GF2m f(0b10011);
  const FeedbackCost cost = feedback_cost(f, {1, 2, 2});
  EXPECT_EQ(cost.adder_gates, 4u);
  EXPECT_GT(cost.multiplier_gates, 0u);
  EXPECT_LE(cost.multiplier_gates, 8u);
}

TEST(FeedbackCost, UnitCoefficientsNeedOnlyAdders) {
  const GF2m f2(0b11);
  // BOM g = 1 + x + x^2: w = r1 ^ r2, one 1-bit adder.
  const FeedbackCost cost = feedback_cost(f2, {1, 1, 1});
  EXPECT_EQ(cost.multiplier_gates, 0u);
  EXPECT_EQ(cost.adder_gates, 1u);
  EXPECT_EQ(cost.total(), 1u);
}

TEST(FeedbackCost, CheckerboardGeneratorIsFree) {
  // g = 1 + x^2: w = r_oldest, pure wiring.
  const GF2m f2(0b11);
  const FeedbackCost cost = feedback_cost(f2, {1, 0, 1});
  EXPECT_EQ(cost.total(), 0u);
}

// The per-signal row masks change how a pair is counted, not which pair
// wins: every constant of GF(2^2)..GF(2^10), and 511 seeded constants
// of each field up to GF(2^16), synthesize the reference's network.
TEST(SynthesizeCse, SameGatesAsTheRowScanOnEveryFieldConstant) {
  Xoshiro256 rng(24);
  for (unsigned m = 2; m <= 16; ++m) {
    const GF2m f = GF2m::standard(m);
    std::vector<Elem> constants;
    if (m <= 10) {
      for (Elem c = 0; c < f.size(); ++c) constants.push_back(c);
    } else {
      for (int i = 0; i < 511; ++i) {
        constants.push_back(static_cast<Elem>(rng.below(f.size())));
      }
    }
    for (const Elem c : constants) {
      const MatrixGF2 mat = multiplier_matrix(f, c);
      expect_same_network(synthesize_cse(mat), reference_cse(mat),
                          "m=" + std::to_string(m) + " c=" + std::to_string(c));
      if (HasFatalFailure()) return;
    }
  }
}

// Rectangular matrices of any density, and row counts past one 64-bit
// mask word (65, 100, 130 rows), synthesize the reference's network.
TEST(SynthesizeCse, SameGatesAsTheRowScanOnRandomMatrices) {
  Xoshiro256 rng(2024);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 7}, {3, 12}, {12, 3}, {9, 20}, {20, 9}, {33, 16},
      {64, 10}, {65, 12}, {100, 8}, {130, 6}};
  for (const auto& [rows, cols] : shapes) {
    for (int draw = 0; draw < 4; ++draw) {
      // Densities from sparse to nearly full.
      const std::uint64_t percent = 15 + 20 * static_cast<std::uint64_t>(draw);
      MatrixGF2 mat(rows, cols);
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
          mat.set(r, c, rng.below(100) < percent);
        }
      }
      const XorNetwork net = synthesize_cse(mat);
      expect_same_network(net, reference_cse(mat),
                          std::to_string(rows) + "x" + std::to_string(cols) +
                              " draw " + std::to_string(draw));
      if (HasFatalFailure()) return;
      // eval packs the outputs into one word (and throws past 64 of
      // them), so it checks the map only up to 64 rows.
      for (int x = 0; rows <= 64 && x < 16; ++x) {
        const std::uint64_t in = rng() & ((std::uint64_t{1} << cols) - 1);
        ASSERT_EQ(net.eval(in), mat.mul_vec64(in)) << rows << "x" << cols;
      }
    }
  }
}

// Exhaustive verification sweep: every constant of GF(2^m) for several
// fields, both synthesizers, checked against field arithmetic.
class SynthesisSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SynthesisSweep, AllConstantsAllInputs) {
  const GF2m f = GF2m::standard(GetParam());
  for (Elem c = 0; c < f.size(); ++c) {
    const MatrixGF2 mat = multiplier_matrix(f, c);
    const XorNetwork naive = synthesize_naive(mat);
    const XorNetwork cse = synthesize_cse(mat);
    for (Elem x = 0; x < f.size(); ++x) {
      const Elem want = f.mul(c, x);
      ASSERT_EQ(naive.eval(x), want);
      ASSERT_EQ(cse.eval(x), want);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fields, SynthesisSweep,
                         ::testing::Values(2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace prt::gf
