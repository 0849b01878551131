// Word-oriented linear feedback shift registers over GF(2^m).
//
// This is the reference model of the paper's *virtual* automaton: a
// pi-test iteration makes the memory array trace exactly the state
// sequence of one of these LFSRs, so the expected final state Fin* is
// obtained by stepping (or jumping) this model.  m = 1 gives the
// bit-oriented LFSR of Fig. 1a; m > 1 with GF(2^m) coefficient
// multipliers gives the word-oriented LFSR of Fig. 1b.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "gf/gf2m.hpp"
#include "gf/gf2m_poly.hpp"
#include "gf/matrix_gf2.hpp"

namespace prt::lfsr {

/// Fibonacci-configuration LFSR with generator polynomial
/// g(x) = g0 + g1 x + ... + gk x^k over GF(2^m), g0 != 0, gk != 0.
/// The produced sequence obeys s[t+k] = sum_{j=1..k} g[j] * s[t+k-j]
/// (the paper's sub-iteration (1): for g = 1 + x + x^2 this is
/// s[t+2] = s[t+1] XOR s[t]).
class WordLfsr {
 public:
  /// Throws std::invalid_argument, naming the value, unless g has
  /// degree k >= 1 (g.size() >= 2), every coefficient lies in the
  /// field, and g0 and gk are non-zero.
  WordLfsr(gf::GF2m field, std::vector<gf::Elem> g);

  [[nodiscard]] const gf::GF2m& field() const { return field_; }
  /// Generator coefficients g0..gk.
  [[nodiscard]] const std::vector<gf::Elem>& g() const { return g_; }
  /// Register length k = deg g.
  [[nodiscard]] unsigned k() const {
    return static_cast<unsigned>(g_.size() - 1);
  }
  /// Stage width m in bits.
  [[nodiscard]] unsigned m() const { return field_.m(); }

  /// Current state s[t..t+k-1], oldest first.
  [[nodiscard]] std::span<const gf::Elem> state() const { return state_; }
  /// Resets to the given seed (oldest first).  Precondition:
  /// seed.size() == k().
  void seed(std::span<const gf::Elem> seed);

  /// Produces the next sequence element s[t+k] and shifts it in.
  gf::Elem step();

  /// The feedback value for an arbitrary window (oldest first), without
  /// touching the internal state — the exact combination a pi-test
  /// sub-iteration writes to memory.
  [[nodiscard]] gf::Elem feedback(std::span<const gf::Elem> window) const;

  /// First n sequence elements from the current state (the state itself
  /// provides the first k of them); the state advances by max(0, n-k).
  [[nodiscard]] std::vector<gf::Elem> sequence(std::size_t n);

  /// Period of the state cycle through the *current* state (brute force,
  /// capped; nullopt if the cap is exceeded).  For a primitive g and a
  /// non-zero state this equals max_period().
  [[nodiscard]] std::optional<std::uint64_t> cycle_length(
      std::uint64_t cap = (std::uint64_t{1} << 24)) const;

  /// Order of x modulo g — the period of the sequence for any state that
  /// excites the full recurrence; q^k - 1 iff g is primitive.
  [[nodiscard]] std::uint64_t algebraic_period() const;

  /// q^k - 1, the maximum possible period.
  [[nodiscard]] std::uint64_t max_period() const;

  [[nodiscard]] bool is_irreducible() const;
  [[nodiscard]] bool is_primitive() const;

  /// The k x k companion matrix over GF(2^m) of the recurrence, expanded
  /// to an (m*k) x (m*k) matrix over GF(2) acting on the packed state
  /// (element j occupies bits [j*m, (j+1)*m)).
  [[nodiscard]] gf::MatrixGF2 transition_matrix_gf2() const;

  /// Advances the state by t steps in O(log t) matrix operations.
  void jump(std::uint64_t t);

  /// Packs / unpacks a state vector into bits for matrix application.
  [[nodiscard]] std::uint64_t pack_state(
      std::span<const gf::Elem> s) const;
  [[nodiscard]] std::vector<gf::Elem> unpack_state(std::uint64_t bits) const;

 private:
  gf::GF2m field_;
  std::vector<gf::Elem> g_;
  std::vector<gf::Elem> state_;
};

/// Convenience: the bit-oriented LFSR of Fig. 1a, g(x) = 1 + x + x^2
/// over GF(2).
[[nodiscard]] WordLfsr fig1a_bom_lfsr();

/// Convenience: the word-oriented LFSR of Fig. 1b,
/// g(x) = 1 + 2x + 2x^2 over GF(2^4), p(z) = 1 + z + z^4.
[[nodiscard]] WordLfsr fig1b_wom_lfsr();

}  // namespace prt::lfsr
