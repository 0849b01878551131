#include "lfsr/lfsr.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace prt::lfsr {

WordLfsr::WordLfsr(gf::GF2m field, std::vector<gf::Elem> g)
    : field_(std::move(field)), g_(std::move(g)) {
  if (g_.size() < 2) {
    throw std::invalid_argument(
        "WordLfsr: generator has " + std::to_string(g_.size()) +
        " coefficient(s), so degree k < 1; need g0..gk with k >= 1");
  }
  for (std::size_t j = 0; j < g_.size(); ++j) {
    if (g_[j] >= field_.size()) {
      throw std::invalid_argument(
          "WordLfsr: generator coefficient g" + std::to_string(j) + " = " +
          std::to_string(g_[j]) + " is outside GF(2^" +
          std::to_string(field_.m()) + ")");
    }
  }
  if (g_.front() == 0 || g_.back() == 0) {
    // g0 = 0 leaves x non-invertible; gk = 0 drops the degree below k.
    const std::size_t j = g_.front() == 0 ? 0 : k();
    throw std::invalid_argument("WordLfsr: generator coefficient g" +
                                std::to_string(j) +
                                " = 0; g0 and gk must be non-zero");
  }
  state_.assign(k(), 0);
  state_.back() = 1;  // default non-degenerate seed
}

void WordLfsr::seed(std::span<const gf::Elem> seed) {
  assert(seed.size() == k());
  state_.assign(seed.begin(), seed.end());
}

gf::Elem WordLfsr::feedback(std::span<const gf::Elem> window) const {
  assert(window.size() == k());
  gf::Elem acc = 0;
  // s[t+k] = sum_{j=1..k} g[j] * s[t+k-j]; window is oldest-first so
  // s[t+k-j] = window[k-j].
  for (unsigned j = 1; j <= k(); ++j) {
    acc = field_.add(acc, field_.mul(g_[j], window[k() - j]));
  }
  return acc;
}

gf::Elem WordLfsr::step() {
  const gf::Elem next = feedback(state_);
  std::rotate(state_.begin(), state_.begin() + 1, state_.end());
  state_.back() = next;
  return next;
}

std::vector<gf::Elem> WordLfsr::sequence(std::size_t n) {
  std::vector<gf::Elem> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n && i < state_.size(); ++i) {
    out.push_back(state_[i]);
  }
  while (out.size() < n) out.push_back(step());
  return out;
}

std::optional<std::uint64_t> WordLfsr::cycle_length(std::uint64_t cap) const {
  WordLfsr probe = *this;
  const std::vector<gf::Elem> start = probe.state_;
  for (std::uint64_t t = 1; t <= cap; ++t) {
    probe.step();
    if (probe.state_ == start) return t;
  }
  return std::nullopt;
}

std::uint64_t WordLfsr::algebraic_period() const {
  return gf::order_of_x(field_, gf::PolyGF2m(g_));
}

std::uint64_t WordLfsr::max_period() const {
  std::uint64_t p = 1;
  for (unsigned i = 0; i < k(); ++i) p *= field_.size();
  return p - 1;
}

bool WordLfsr::is_irreducible() const {
  return gf::is_irreducible(field_, gf::PolyGF2m(g_));
}

bool WordLfsr::is_primitive() const {
  return gf::is_primitive(field_, gf::PolyGF2m(g_));
}

gf::MatrixGF2 WordLfsr::transition_matrix_gf2() const {
  const unsigned mk = m() * k();
  assert(mk <= 64 && "packed state must fit one word");
  gf::MatrixGF2 t(mk, mk);
  // One step maps (s0,...,s_{k-1}) to (s1,...,s_{k-1}, f(s)).  Build the
  // matrix column-by-column from the action on basis states.
  for (unsigned col = 0; col < mk; ++col) {
    WordLfsr probe = *this;
    std::vector<gf::Elem> basis(k(), 0);
    basis[col / m()] = gf::Elem{1} << (col % m());
    probe.seed(basis);
    probe.step();
    const std::uint64_t image = pack_state(probe.state_);
    for (unsigned row = 0; row < mk; ++row) {
      if ((image >> row) & 1U) t.set(row, col, true);
    }
  }
  return t;
}

void WordLfsr::jump(std::uint64_t t) {
  const gf::MatrixGF2 step_t = transition_matrix_gf2().pow(t);
  const std::uint64_t image = step_t.mul_vec64(pack_state(state_));
  state_ = unpack_state(image);
}

std::uint64_t WordLfsr::pack_state(std::span<const gf::Elem> s) const {
  assert(s.size() == k() && m() * k() <= 64);
  std::uint64_t bits = 0;
  for (unsigned j = 0; j < k(); ++j) {
    bits |= static_cast<std::uint64_t>(s[j]) << (j * m());
  }
  return bits;
}

std::vector<gf::Elem> WordLfsr::unpack_state(std::uint64_t bits) const {
  std::vector<gf::Elem> s(k());
  const std::uint64_t mask = (std::uint64_t{1} << m()) - 1;
  for (unsigned j = 0; j < k(); ++j) {
    s[j] = static_cast<gf::Elem>((bits >> (j * m())) & mask);
  }
  return s;
}

WordLfsr fig1a_bom_lfsr() {
  return WordLfsr(gf::GF2m(0b11 /* z + 1: GF(2) */),
                  std::vector<gf::Elem>{1, 1, 1});
}

WordLfsr fig1b_wom_lfsr() {
  return WordLfsr(gf::GF2m(0b10011 /* z^4 + z + 1 */),
                  std::vector<gf::Elem>{1, 2, 2});
}

}  // namespace prt::lfsr
