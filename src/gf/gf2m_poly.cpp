#include "gf/gf2m_poly.hpp"

#include <cassert>

namespace prt::gf {

PolyGF2m poly_add(const GF2m& f, const PolyGF2m& a, const PolyGF2m& b) {
  std::vector<Elem> out(std::max(a.coeffs.size(), b.coeffs.size()), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = f.add(a.at(i), b.at(i));
  }
  return PolyGF2m(std::move(out));
}

PolyGF2m poly_mul(const GF2m& f, const PolyGF2m& a, const PolyGF2m& b) {
  if (a.is_zero() || b.is_zero()) return {};
  std::vector<Elem> out(a.coeffs.size() + b.coeffs.size() - 1, 0);
  for (std::size_t i = 0; i < a.coeffs.size(); ++i) {
    if (a.coeffs[i] == 0) continue;
    for (std::size_t j = 0; j < b.coeffs.size(); ++j) {
      out[i + j] = f.add(out[i + j], f.mul(a.coeffs[i], b.coeffs[j]));
    }
  }
  return PolyGF2m(std::move(out));
}

PolyGF2m poly_mod(const GF2m& f, PolyGF2m a, const PolyGF2m& g) {
  assert(!g.is_zero());
  const int dg = g.degree();
  const Elem lead_inv = f.inv(g.coeffs.back());
  while (a.degree() >= dg) {
    const int shift = a.degree() - dg;
    const Elem factor = f.mul(a.coeffs.back(), lead_inv);
    for (int i = 0; i <= dg; ++i) {
      a.coeffs[static_cast<std::size_t>(i + shift)] =
          f.add(a.coeffs[static_cast<std::size_t>(i + shift)],
                f.mul(factor, g.coeffs[static_cast<std::size_t>(i)]));
    }
    a.normalize();
  }
  return a;
}

PolyGF2m poly_gcd(const GF2m& f, PolyGF2m a, PolyGF2m b) {
  while (!b.is_zero()) {
    PolyGF2m r = poly_mod(f, std::move(a), b);
    a = std::move(b);
    b = std::move(r);
  }
  if (!a.is_zero()) a = poly_make_monic(f, a);
  return a;
}

PolyGF2m poly_mulmod(const GF2m& f, const PolyGF2m& a, const PolyGF2m& b,
                     const PolyGF2m& g) {
  return poly_mod(f, poly_mul(f, a, b), g);
}

PolyGF2m poly_powmod(const GF2m& f, PolyGF2m a, std::uint64_t e,
                     const PolyGF2m& g) {
  PolyGF2m result(std::vector<Elem>{1});
  result = poly_mod(f, std::move(result), g);
  a = poly_mod(f, std::move(a), g);
  while (e != 0) {
    if (e & 1) result = poly_mulmod(f, result, a, g);
    a = poly_mulmod(f, a, a, g);
    e >>= 1;
  }
  return result;
}

PolyGF2m poly_scale(const GF2m& f, const PolyGF2m& a, Elem c) {
  assert(c != 0);
  std::vector<Elem> out(a.coeffs.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = f.mul(a.coeffs[i], c);
  }
  return PolyGF2m(std::move(out));
}

PolyGF2m poly_make_monic(const GF2m& f, const PolyGF2m& a) {
  assert(!a.is_zero());
  if (a.coeffs.back() == 1) return a;
  return poly_scale(f, a, f.inv(a.coeffs.back()));
}

Elem poly_eval(const GF2m& f, const PolyGF2m& a, Elem x0) {
  Elem acc = 0;
  for (std::size_t i = a.coeffs.size(); i-- > 0;) {
    acc = f.add(f.mul(acc, x0), a.coeffs[i]);
  }
  return acc;
}

namespace {

/// x as a polynomial.
PolyGF2m poly_x() { return PolyGF2m(std::vector<Elem>{0, 1}); }

/// h(x)^q mod g where q = field size (one Frobenius step applied to the
/// residue class of h).
PolyGF2m frobenius(const GF2m& f, const PolyGF2m& h, const PolyGF2m& g) {
  return poly_powmod(f, h, f.size(), g);
}

}  // namespace

bool is_irreducible(const GF2m& f, const PolyGF2m& g) {
  const int deg = g.degree();
  if (deg < 1) return false;
  if (deg == 1) return true;
  const auto k = static_cast<unsigned>(deg);
  // Rabin over GF(q): x^(q^k) == x mod g, and for each prime r | k,
  // gcd(x^(q^(k/r)) - x, g) == 1.
  const PolyGF2m x = poly_mod(f, poly_x(), g);
  PolyGF2m frob = x;  // x^(q^j), starting at j = 0
  std::vector<PolyGF2m> powers(k + 1);
  powers[0] = x;
  for (unsigned j = 1; j <= k; ++j) {
    frob = frobenius(f, frob, g);
    powers[j] = frob;
  }
  if (powers[k] != x) return false;
  for (std::uint64_t r : distinct_prime_factors(k)) {
    const PolyGF2m diff = poly_add(f, powers[k / r], x);
    if (poly_gcd(f, diff, g).degree() != 0) return false;
  }
  return true;
}

std::uint64_t order_of_x(const GF2m& f, const PolyGF2m& g,
                         std::uint64_t brute_force_cap) {
  assert(g.degree() >= 1);
  if (g.at(0) == 0) return 0;  // x not invertible modulo g
  const auto k = static_cast<unsigned>(g.degree());
  const PolyGF2m monic = poly_make_monic(f, g);
  if (is_irreducible(f, monic)) {
    // Order divides q^k - 1.
    std::uint64_t t = 1;
    for (unsigned i = 0; i < k; ++i) t *= f.size();
    t -= 1;
    for (std::uint64_t r : distinct_prime_factors(t)) {
      while (t % r == 0) {
        const PolyGF2m p = poly_powmod(f, poly_x(), t / r, monic);
        if (p.degree() == 0 && p.at(0) == 1) {
          t /= r;
        } else {
          break;
        }
      }
    }
    return t;
  }
  // Reducible modulus: bounded brute force on successive powers of x.
  PolyGF2m cur = poly_mod(f, poly_x(), monic);
  const PolyGF2m one(std::vector<Elem>{1});
  const PolyGF2m x = cur;
  for (std::uint64_t t = 1; t <= brute_force_cap; ++t) {
    if (cur == one) return t;
    cur = poly_mulmod(f, cur, x, monic);
  }
  return 0;
}

bool is_primitive(const GF2m& f, const PolyGF2m& g) {
  if (g.degree() < 1 || g.at(0) == 0) return false;
  const PolyGF2m monic = poly_make_monic(f, g);
  if (!is_irreducible(f, monic)) return false;
  std::uint64_t full = 1;
  for (int i = 0; i < g.degree(); ++i) full *= f.size();
  return order_of_x(f, monic) == full - 1;
}

std::optional<PolyGF2m> find_irreducible(const GF2m& f, unsigned k,
                                         bool primitive) {
  assert(k >= 1);
  // Enumerate monic degree-k polynomials by counting in base q over the
  // low k coefficients, requiring a non-zero constant term.
  const std::uint64_t q = f.size();
  std::uint64_t total = 1;
  for (unsigned i = 0; i < k; ++i) total *= q;
  for (std::uint64_t code = 1; code < total; ++code) {
    std::vector<Elem> c(k + 1, 0);
    std::uint64_t rest = code;
    for (unsigned i = 0; i < k; ++i) {
      c[i] = static_cast<Elem>(rest % q);
      rest /= q;
    }
    c[k] = 1;
    if (c[0] == 0) continue;
    // In characteristic 2 every element is a square, so a candidate
    // with no odd-power term is h(x)^2: reducible, skip it untested.
    bool odd_term = false;
    for (unsigned i = 1; i <= k; i += 2) odd_term = odd_term || c[i] != 0;
    if (!odd_term) continue;
    PolyGF2m g(std::move(c));
    if (primitive ? is_primitive(f, g) : is_irreducible(f, g)) return g;
  }
  return std::nullopt;
}

std::string poly_to_string(const GF2m& f, const PolyGF2m& g, char var) {
  if (g.is_zero()) return "0";
  std::string out;
  for (std::size_t i = 0; i < g.coeffs.size(); ++i) {
    if (g.coeffs[i] == 0) continue;
    if (!out.empty()) out += " + ";
    const bool unit = g.coeffs[i] == 1;
    if (i == 0) {
      out += f.to_hex(g.coeffs[i]);
    } else {
      if (!unit) out += f.to_hex(g.coeffs[i]);
      out += var;
      if (i > 1) {
        out += '^';
        out += std::to_string(i);
      }
    }
  }
  return out;
}

}  // namespace prt::gf
