// Synthesis of multiplication-by-a-constant circuits in GF(2^m).
//
// Multiplying a field element x by a fixed constant c is a GF(2)-linear
// map, so it is described by an m x m binary matrix and realizable with
// XOR gates only.  The paper relies on exactly this ("Multiplier by a
// constant contains only XOR-gates and can be implemented inherently in
// the memory circuit") and proposes an algorithm for an optimal scheme;
// we provide a naive row-by-row synthesis and a greedy
// common-subexpression-elimination optimizer (Paar's algorithm), plus
// an evaluator so synthesized networks are verified against field
// arithmetic.
#pragma once

#include <cstdint>
#include <vector>

#include "gf/gf2m.hpp"
#include "gf/matrix_gf2.hpp"

namespace prt::gf {

/// A combinational XOR network.  Signals 0..inputs-1 are the primary
/// inputs; gate i (two fan-ins) defines signal inputs+i.  outputs[r] is
/// the signal driving output bit r; kGroundSignal denotes constant 0.
struct XorNetwork {
  static constexpr std::uint32_t kGroundSignal = 0xffffffffU;

  struct Gate {
    std::uint32_t a;
    std::uint32_t b;
  };

  std::uint32_t inputs = 0;
  std::vector<Gate> gates;
  std::vector<std::uint32_t> outputs;

  [[nodiscard]] std::size_t gate_count() const { return gates.size(); }

  /// Longest input-to-output path measured in XOR gates.
  [[nodiscard]] unsigned depth() const;

  /// Evaluates the network on the packed input word (bit i = input i);
  /// bit r of the result is output r.  Throws std::invalid_argument
  /// naming the count when the network has more than 64 inputs or
  /// outputs, which the two words cannot hold.
  [[nodiscard]] std::uint64_t eval(std::uint64_t in) const;
};

/// The m x m GF(2) matrix of the map x -> c * x in the given field
/// (column j is c * z^j in the polynomial basis).
[[nodiscard]] MatrixGF2 multiplier_matrix(const GF2m& field, Elem c);

/// Synthesizes any GF(2)-linear map (rows x cols matrix) as an XOR
/// network, one balanced XOR tree per output row, no sharing.
[[nodiscard]] XorNetwork synthesize_naive(const MatrixGF2& matrix);

/// Greedy common-subexpression elimination (Paar): repeatedly
/// materializes the signal pair co-occurring in the most rows.  Always
/// produces a network with gate count <= the naive one.
[[nodiscard]] XorNetwork synthesize_cse(const MatrixGF2& matrix);

/// Gate counts for the full PRT feedback function
/// w = sum_j g_j * r_j over GF(2^m) with k coefficient multipliers:
/// the multipliers (CSE-optimized) plus (k-1) word-wide XOR adders.
struct FeedbackCost {
  std::size_t multiplier_gates = 0;
  std::size_t adder_gates = 0;
  [[nodiscard]] std::size_t total() const {
    return multiplier_gates + adder_gates;
  }
};

[[nodiscard]] FeedbackCost feedback_cost(const GF2m& field,
                                         const std::vector<Elem>& coeffs);

}  // namespace prt::gf
