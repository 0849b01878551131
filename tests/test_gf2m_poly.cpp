// Tests for polynomials over GF(2^m) (gf/gf2m_poly) — the layer that
// certifies the paper's g(x) = 1 + 2x + 2x^2 as irreducible/primitive
// over GF(2^4) and computes LFSR periods.
#include "gf/gf2m_poly.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace prt::gf {
namespace {

GF2m paper_field() { return GF2m(0b10011); }  // GF(16), p = z^4+z+1

PolyGF2m paper_g() { return PolyGF2m({1, 2, 2}); }  // 1 + 2x + 2x^2

TEST(PolyGF2mBasic, NormalizationDropsLeadingZeros) {
  PolyGF2m p({1, 2, 0, 0});
  EXPECT_EQ(p.degree(), 1);
  EXPECT_EQ(p.at(0), 1u);
  EXPECT_EQ(p.at(5), 0u);
  EXPECT_TRUE(PolyGF2m({0, 0}).is_zero());
}

TEST(PolyGF2mBasic, AddIsXorOfCoefficients) {
  const GF2m f = paper_field();
  const PolyGF2m a({1, 2, 3});
  const PolyGF2m b({3, 2, 1});
  EXPECT_EQ(poly_add(f, a, b), PolyGF2m({2, 0, 2}));
  // a + a = 0 in characteristic 2.
  EXPECT_TRUE(poly_add(f, a, a).is_zero());
}

TEST(PolyGF2mBasic, MulDegreeAdds) {
  const GF2m f = paper_field();
  const PolyGF2m a({1, 1});     // 1 + x
  const PolyGF2m b({2, 0, 1});  // 2 + x^2
  const PolyGF2m prod = poly_mul(f, a, b);
  EXPECT_EQ(prod.degree(), 3);
  // (1+x)(2+x^2) = 2 + 2x + x^2 + x^3.
  EXPECT_EQ(prod, PolyGF2m({2, 2, 1, 1}));
}

TEST(PolyGF2mBasic, MulByZeroIsZero) {
  const GF2m f = paper_field();
  EXPECT_TRUE(poly_mul(f, paper_g(), PolyGF2m{}).is_zero());
}

TEST(PolyGF2mBasic, ModReducesBelowDivisor) {
  const GF2m f = paper_field();
  const PolyGF2m g = paper_g();
  PolyGF2m big({5, 6, 7, 8, 9});
  const PolyGF2m r = poly_mod(f, big, g);
  EXPECT_LT(r.degree(), g.degree());
}

TEST(PolyGF2mBasic, DivisionInvariant) {
  const GF2m f = paper_field();
  const PolyGF2m g = paper_g();
  // For random-ish a: a mod g added to a multiple of g reproduces a.
  const PolyGF2m a({7, 3, 9, 12, 1});
  const PolyGF2m r = poly_mod(f, a, g);
  // a - r must be divisible by g (difference == sum in char 2).
  const PolyGF2m diff = poly_add(f, a, r);
  EXPECT_TRUE(poly_mod(f, diff, g).is_zero());
}

TEST(PolyGF2mBasic, MakeMonic) {
  const GF2m f = paper_field();
  const PolyGF2m monic = poly_make_monic(f, paper_g());
  EXPECT_EQ(monic.coeffs.back(), 1u);
  // Monic version has the same roots: check proportionality by
  // re-scaling back.
  EXPECT_EQ(poly_scale(f, monic, 2), paper_g());
}

TEST(PolyGF2mBasic, EvalHorner) {
  const GF2m f = paper_field();
  const PolyGF2m g = paper_g();
  // g(0) = 1; g(1) = 1 + 2 + 2 = 1.
  EXPECT_EQ(poly_eval(f, g, 0), 1u);
  EXPECT_EQ(poly_eval(f, g, 1), 1u);
}

TEST(PolyGF2mBasic, GcdOfCoprime) {
  const GF2m f = paper_field();
  const PolyGF2m g = paper_g();
  const PolyGF2m x({0, 1});
  const PolyGF2m gcd = poly_gcd(f, g, x);
  EXPECT_EQ(gcd.degree(), 0);
}

TEST(PolyGF2mIrreducible, PaperGeneratorIsIrreducible) {
  // The paper: "g(x) = 1 + 2x + 2x^2 ... is irreducible in the field
  // GF(2^4)".
  EXPECT_TRUE(is_irreducible(paper_field(), paper_g()));
}

TEST(PolyGF2mIrreducible, PaperGeneratorIsPrimitive) {
  EXPECT_TRUE(is_primitive(paper_field(), paper_g()));
}

TEST(PolyGF2mIrreducible, IrreducibleHasNoRoots) {
  const GF2m f = paper_field();
  const PolyGF2m g = paper_g();
  for (Elem a = 0; a < 16; ++a) {
    EXPECT_NE(poly_eval(f, g, a), 0u) << "root at " << +a;
  }
}

TEST(PolyGF2mIrreducible, ProductOfLinearsIsReducible) {
  const GF2m f = paper_field();
  // (x + 3)(x + 5) expanded: x^2 + (3+5)x + 15 = x^2 + 6x + 15... in
  // GF(16): 3*5 = ?  Compute via the field to stay honest.
  const Elem c0 = f.mul(3, 5);
  const PolyGF2m reducible({c0, f.add(3, 5), 1});
  EXPECT_FALSE(is_irreducible(f, reducible));
}

TEST(PolyGF2mIrreducible, DetectsRootlessReducibleQuartic) {
  // Over GF(2) (via m=1 field z+1): x^4+x^2+1 = (x^2+x+1)^2 has no
  // roots but is reducible — Rabin must not be fooled.
  const GF2m f2(0b11);
  const PolyGF2m p({1, 0, 1, 0, 1});
  EXPECT_FALSE(is_irreducible(f2, p));
}

TEST(PolyGF2mIrreducible, AgreesWithGf2LayerForM1) {
  const GF2m f2(0b11);
  // x^4 + x + 1 over GF(2).
  EXPECT_TRUE(is_irreducible(f2, PolyGF2m({1, 1, 0, 0, 1})));
  // x^4 + x^2 + x + 1 = (x+1)(x^3+x^2+1)? evaluate: has root 1.
  EXPECT_FALSE(is_irreducible(f2, PolyGF2m({1, 1, 1, 0, 1})));
}

TEST(PolyGF2mOrder, PaperGeneratorHasPeriod255) {
  // Fig. 1b: the virtual word-oriented LFSR closes its ring after 255
  // states (GF(16), k = 2: q^k - 1 = 255).
  EXPECT_EQ(order_of_x(paper_field(), paper_g()), 255u);
}

TEST(PolyGF2mOrder, CheckerboardGeneratorHasPeriod2) {
  // g(x) = 1 + x^2 (reducible): x^2 = 1 mod g, so the order is 2.
  EXPECT_EQ(order_of_x(paper_field(), PolyGF2m({1, 0, 1})), 2u);
  EXPECT_EQ(order_of_x(GF2m(0b11), PolyGF2m({1, 0, 1})), 2u);
}

TEST(PolyGF2mOrder, ZeroConstantTermMeansNoOrder) {
  EXPECT_EQ(order_of_x(paper_field(), PolyGF2m({0, 1, 1})), 0u);
}

TEST(PolyGF2mOrder, BomFig1aGeneratorHasPeriod3) {
  // g(x) = 1 + x + x^2 over GF(2).
  EXPECT_EQ(order_of_x(GF2m(0b11), PolyGF2m({1, 1, 1})), 3u);
}

TEST(PolyGF2mOrder, OrderMatchesBruteForceOverGf4) {
  const GF2m f(0b111);  // GF(4)
  // Sweep all monic degree-2 polynomials with non-zero constant term.
  for (Elem c0 = 1; c0 < 4; ++c0) {
    for (Elem c1 = 0; c1 < 4; ++c1) {
      const PolyGF2m g({c0, c1, 1});
      const std::uint64_t analytic = order_of_x(f, g);
      // Brute force.
      PolyGF2m cur({0, 1});
      cur = poly_mod(f, cur, g);
      const PolyGF2m one({1});
      std::uint64_t t = 0;
      PolyGF2m acc = cur;
      for (t = 1; t < 1000; ++t) {
        if (acc == one) break;
        acc = poly_mulmod(f, acc, cur, g);
      }
      EXPECT_EQ(analytic, t) << "c0=" << +c0 << " c1=" << +c1;
    }
  }
}

// The search returns the first candidate in its enumeration order, so
// skipping the squares h(x)^2 untested must not change what it finds:
// the exact polynomials are pinned.  extended_scheme_wom takes its
// generator from this search.
TEST(PolyGF2mFind, FindsPrimitiveQuadraticOverEveryField) {
  const struct {
    unsigned m;
    std::vector<Elem> coeffs;
  } cases[] = {{2, {2, 1, 1}},  {3, {3, 1, 1}},    {4, {9, 1, 1}},
               {6, {33, 1, 1}}, {8, {34, 1, 1}},   {12, {2048, 1, 1}},
               {14, {513, 1, 1}}, {16, {2048, 1, 1}}};
  for (const auto& c : cases) {
    const GF2m f = GF2m::standard(c.m);
    const auto g = find_irreducible(f, 2, /*primitive=*/true);
    ASSERT_TRUE(g.has_value()) << "m=" << c.m;
    EXPECT_EQ(g->coeffs, c.coeffs) << "m=" << c.m;
    EXPECT_TRUE(is_primitive(f, *g));
    std::uint64_t full = static_cast<std::uint64_t>(f.size()) * f.size() - 1;
    EXPECT_EQ(order_of_x(f, *g), full);
  }
}

// Degree 4 has two odd-power coefficients to inspect before a
// candidate counts as a square.
TEST(PolyGF2mFind, FindsFirstQuarticInEnumerationOrder) {
  EXPECT_EQ(find_irreducible(GF2m::standard(2), 4)->coeffs,
            (std::vector<Elem>{1, 2, 1, 0, 1}));
  EXPECT_EQ(find_irreducible(GF2m::standard(4), 4, /*primitive=*/true)->coeffs,
            (std::vector<Elem>{4, 2, 1, 0, 1}));
}

TEST(PolyGF2mFind, FindsPlainIrreducibleCubic) {
  const GF2m f = GF2m::standard(4);
  const auto g = find_irreducible(f, 3, /*primitive=*/false);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->degree(), 3);
  EXPECT_TRUE(is_irreducible(f, *g));
}

TEST(PolyGF2mToString, PaperStyle) {
  const GF2m f = paper_field();
  EXPECT_EQ(poly_to_string(f, paper_g()), "1 + 2x + 2x^2");
  EXPECT_EQ(poly_to_string(f, PolyGF2m({0, 1})), "x");
  EXPECT_EQ(poly_to_string(f, PolyGF2m({10, 0, 12})), "A + Cx^2");
  EXPECT_EQ(poly_to_string(f, PolyGF2m{}), "0");
}

}  // namespace
}  // namespace prt::gf
