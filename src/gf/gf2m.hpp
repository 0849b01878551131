// The finite field GF(2^m) in polynomial basis, constructed from an
// irreducible modulus p(z) over GF(2).  Elements are packed integers
// (bit i = coefficient of z^i), so "2" denotes the element z, matching
// the paper's notation g(x) = 1 + 2x + 2x^2 over GF(2^4).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gf/gf2_poly.hpp"

namespace prt::gf {

/// A field element; only the low m bits are meaningful.
using Elem = std::uint32_t;

/// True if `p` builds a GF2m: degree in [1, 16], a non-zero constant
/// term and irreducible over GF(2) (z + 1 for GF(2)).  Over any other
/// polynomial (z^2 + 1 = (z + 1)^2, say) the arithmetic would be a
/// ring's, not a field's.
[[nodiscard]] bool is_field_modulus(Poly2 p);

/// GF(2^m) with 1 <= m <= 16.  Construction validates irreducibility of
/// the modulus.  All operations are total on reduced elements
/// (value < 2^m); callers must not pass unreduced values.
class GF2m {
 public:
  /// Builds the field from an irreducible modulus.  Throws
  /// std::invalid_argument naming the modulus unless
  /// is_field_modulus(modulus).
  explicit GF2m(Poly2 modulus);

  /// Convenience: the field GF(2^m) over the lexicographically first
  /// primitive polynomial of degree m.
  static GF2m standard(unsigned m);

  [[nodiscard]] unsigned m() const { return m_; }
  [[nodiscard]] Poly2 modulus() const { return modulus_; }
  /// Number of field elements, 2^m.
  [[nodiscard]] std::uint32_t size() const { return std::uint32_t{1} << m_; }
  /// Size of the multiplicative group, 2^m - 1.
  [[nodiscard]] std::uint32_t group_order() const { return size() - 1; }
  /// True if z generates the multiplicative group (modulus primitive).
  [[nodiscard]] bool z_is_primitive() const { return z_primitive_; }

  [[nodiscard]] Elem add(Elem a, Elem b) const { return a ^ b; }
  [[nodiscard]] Elem mul(Elem a, Elem b) const;
  /// a^e for integer e >= 0 (a != 0 when e == 0 yields 1; 0^0 == 1).
  [[nodiscard]] Elem pow(Elem a, std::uint64_t e) const;
  /// Multiplicative inverse; precondition a != 0.
  [[nodiscard]] Elem inv(Elem a) const;
  /// a / b; precondition b != 0.
  [[nodiscard]] Elem div(Elem a, Elem b) const { return mul(a, inv(b)); }

  /// Multiplicative order of a (smallest t > 0 with a^t = 1); a != 0.
  [[nodiscard]] std::uint32_t order(Elem a) const;

  /// Discrete log base z when z is primitive: z^log(a) == a, a != 0.
  /// Precondition: z_is_primitive().
  [[nodiscard]] std::uint32_t log(Elem a) const;
  /// z^k (k reduced modulo the group order).  Precondition:
  /// z_is_primitive().
  [[nodiscard]] Elem exp(std::uint32_t k) const;

  /// Hex rendering of an element, as in the paper's Fig. 1b
  /// (e.g. element z^2+z of GF(2^4) prints as "6").
  [[nodiscard]] std::string to_hex(Elem a) const;

  bool operator==(const GF2m& other) const {
    return modulus_ == other.modulus_;
  }

 private:
  Poly2 modulus_;
  unsigned m_;
  bool z_primitive_;
  // Log/antilog tables, built only when z is primitive (empty otherwise).
  std::vector<Elem> exp_table_;        // exp_table_[k] = z^k, k < 2^m-1
  std::vector<std::uint32_t> log_table_;  // log_table_[a] = k, a != 0
};

}  // namespace prt::gf
