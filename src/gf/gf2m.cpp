#include "gf/gf2m.hpp"

#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "util/bitops.hpp"

namespace prt::gf {

bool is_field_modulus(Poly2 p) {
  const int degree = poly_degree(p);
  return degree >= 1 && degree <= 16 && (p & 1) != 0 && is_irreducible(p);
}

GF2m::GF2m(Poly2 modulus)
    : modulus_(modulus),
      m_(static_cast<unsigned>(poly_degree(modulus))),
      z_primitive_(false) {
  if (!is_field_modulus(modulus)) {
    throw std::invalid_argument(
        "GF2m: modulus " + std::to_string(modulus) +
        " needs degree in [1, 16], a constant term and no factor over "
        "GF(2) (z + 1 for GF(2))");
  }
  z_primitive_ = (m_ == 1) || (order_of_x(modulus) == group_order());
  if (z_primitive_) {
    exp_table_.resize(group_order());
    log_table_.assign(size(), 0);
    Elem cur = 1;
    for (std::uint32_t k = 0; k < group_order(); ++k) {
      exp_table_[k] = cur;
      log_table_[cur] = k;
      cur = static_cast<Elem>(mulmod(cur, 2, modulus_));
    }
    assert(cur == 1 && "z^(2^m-1) must close the cycle");
  }
}

GF2m GF2m::standard(unsigned m) { return GF2m(first_primitive(m)); }

Elem GF2m::mul(Elem a, Elem b) const {
  assert(a < size() && b < size());
  if (a == 0 || b == 0) return 0;
  if (z_primitive_) {
    const std::uint64_t k =
        std::uint64_t{log_table_[a]} + log_table_[b];
    return exp_table_[k >= group_order() ? k - group_order() : k];
  }
  return static_cast<Elem>(mulmod(a, b, modulus_));
}

Elem GF2m::pow(Elem a, std::uint64_t e) const {
  assert(a < size());
  if (e == 0) return 1;
  if (a == 0) return 0;
  if (z_primitive_) {
    const std::uint64_t k =
        (static_cast<std::uint64_t>(log_table_[a]) * (e % group_order())) %
        group_order();
    return exp_table_[k];
  }
  return static_cast<Elem>(powmod(a, e, modulus_));
}

Elem GF2m::inv(Elem a) const {
  assert(a != 0 && a < size());
  if (z_primitive_) {
    const std::uint32_t k = log_table_[a];
    return exp_table_[k == 0 ? 0 : group_order() - k];
  }
  // a^(2^m - 2) = a^{-1} in GF(2^m).
  return static_cast<Elem>(powmod(a, group_order() - 1, modulus_));
}

std::uint32_t GF2m::order(Elem a) const {
  assert(a != 0 && a < size());
  std::uint32_t t = group_order();
  for (std::uint64_t q : distinct_prime_factors(t)) {
    while (t % q == 0 && pow(a, t / q) == 1) {
      t = static_cast<std::uint32_t>(t / q);
    }
  }
  return t;
}

std::uint32_t GF2m::log(Elem a) const {
  assert(z_primitive_ && a != 0 && a < size());
  return log_table_[a];
}

Elem GF2m::exp(std::uint32_t k) const {
  assert(z_primitive_);
  return exp_table_[k % group_order()];
}

std::string GF2m::to_hex(Elem a) const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%X", a);
  return buf;
}

}  // namespace prt::gf
