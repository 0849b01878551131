#include "core/prt_engine.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "gf/gf2m_poly.hpp"
#include "util/bitops.hpp"

namespace prt::core {

void validate_prt_scheme(const PrtScheme& scheme, mem::Addr n, unsigned m) {
  const int degree = poly_degree(scheme.field_modulus);
  if (degree != static_cast<int>(m) || degree > 16) {
    throw std::invalid_argument(
        "PrtScheme: field degree " + std::to_string(degree) +
        " must equal the campaign word width m = " + std::to_string(m) +
        " and lie in [1, 16]");
  }
  if (!gf::is_field_modulus(scheme.field_modulus)) {
    throw std::invalid_argument(
        "PrtScheme: field modulus " + std::to_string(scheme.field_modulus) +
        " is not irreducible over GF(2) with a constant term");
  }
  // A degree-0 polynomial (misr_poly = 1) would give a 0-bit register.
  const int misr_degree = poly_degree(scheme.misr_poly);
  if (scheme.misr_poly != 0 && (misr_degree < 1 || misr_degree > 63)) {
    throw std::invalid_argument(
        "PrtScheme: MISR polynomial " + std::to_string(scheme.misr_poly) +
        " has degree " + std::to_string(misr_degree) +
        ", needs 0 (disabled) or a degree in [1, 63]");
  }
  if (scheme.iterations.empty()) {
    throw std::invalid_argument("PrtScheme: no iterations");
  }
  const gf::Elem field_size = gf::Elem{1} << degree;
  for (std::size_t i = 0; i < scheme.iterations.size(); ++i) {
    const SchemeIteration& it = scheme.iterations[i];
    const std::string where = "PrtScheme iteration " + std::to_string(i);
    const std::size_t k = it.g.empty() ? 0 : it.g.size() - 1;
    if (k < 1 || k >= n || m * k > 64) {
      throw std::invalid_argument(
          where + ": need 1 <= k < n and m * k <= 64 (got k = " +
          std::to_string(k) + ", n = " + std::to_string(n) +
          ", m = " + std::to_string(m) + ")");
    }
    if (it.config.init.size() != k) {
      throw std::invalid_argument(where + ": needs k = " + std::to_string(k) +
                                  " seeds (got " +
                                  std::to_string(it.config.init.size()) + ")");
    }
    if (it.g.front() == 0 || it.g.back() == 0) {
      throw std::invalid_argument(where + ": g0 and gk must be non-zero");
    }
    for (const gf::Elem c : it.g) {
      if (c >= field_size) {
        throw std::invalid_argument(where + ": coefficient " +
                                    std::to_string(c) + " outside GF(2^" +
                                    std::to_string(degree) + ")");
      }
    }
    for (const gf::Elem d : it.config.init) {
      if (d >= field_size) {
        throw std::invalid_argument(where + ": seed " + std::to_string(d) +
                                    " outside GF(2^" + std::to_string(degree) +
                                    ")");
      }
    }
  }
}

PrtOracle make_prt_oracle(const PrtScheme& scheme, mem::Addr n) {
  assert(!scheme.iterations.empty());
  const gf::GF2m field(scheme.field_modulus);
  PrtOracle oracle;
  oracle.n = n;
  oracle.testers.reserve(scheme.iterations.size());
  oracle.iterations.reserve(scheme.iterations.size());
  for (const SchemeIteration& iter : scheme.iterations) {
    PiTester tester(field, iter.g);
    if (scheme.misr_poly != 0) tester.enable_misr(scheme.misr_poly);
    oracle.iterations.push_back(tester.make_oracle(n, iter.config));
    oracle.testers.push_back(std::move(tester));
  }
  return oracle;
}

std::string scheme_fingerprint(const PrtScheme& scheme) {
  // Serializes exactly the inputs of make_prt_oracle /
  // make_op_transcript; `name` is display-only and excluded.
  std::string fp = "p=" + std::to_string(scheme.field_modulus) +
                   ";misr=" + std::to_string(scheme.misr_poly);
  for (const SchemeIteration& iter : scheme.iterations) {
    fp += ";g=";
    for (const gf::Elem c : iter.g) fp += std::to_string(c) + ",";
    fp += "d=";
    for (const gf::Elem d : iter.config.init) fp += std::to_string(d) + ",";
    fp += "t=" + std::to_string(static_cast<int>(iter.config.trajectory)) +
          ",s=" + std::to_string(iter.config.seed) +
          ",v=" + std::to_string(iter.config.verify_pass ? 1 : 0) +
          ",z=" + std::to_string(iter.config.pause_ticks);
  }
  return fp;
}

PrtVerdict run_prt(mem::Memory& memory, const PrtScheme& scheme) {
  validate_prt_scheme(scheme, memory.size(), memory.width());
  return run_prt(memory, scheme, make_prt_oracle(scheme, memory.size()));
}

PrtVerdict run_prt(mem::Memory& memory, const PrtScheme& scheme,
                   const PrtOracle& oracle, const PrtRunOptions& options) {
  assert(!scheme.iterations.empty());
  assert(oracle.testers.size() == scheme.iterations.size());
  assert(oracle.n == memory.size());
  PrtVerdict verdict;
  for (std::size_t i = 0; i < scheme.iterations.size(); ++i) {
    PiResult r = oracle.testers[i].run(memory, scheme.iterations[i].config,
                                       oracle.iterations[i]);
    verdict.pass = verdict.pass && r.pass;
    verdict.misr_pass = verdict.misr_pass && r.misr_pass;
    verdict.reads += r.reads;
    verdict.writes += r.writes;
    if (options.record_iterations) verdict.iterations.push_back(std::move(r));
    if (options.early_abort && verdict.detected()) break;
  }
  return verdict;
}

namespace {

/// Iterations 1/2 of the reconstructed TDB: the degenerate two-term
/// generator g(x) = 1 + x^2 replays the seed pair periodically, giving
/// an address-checkerboard background (period 2).
std::vector<gf::Elem> checkerboard_g() { return {1, 0, 1}; }

/// The WOM factories' word-width guard: GF(2^m) for m in [2, 16].
/// Thrown before any polynomial search, which never ends for m = 0 and
/// runs past 30 s for m = 24.
void require_wom_width(const char* factory, unsigned m) {
  if (m < 2 || m > 16) {
    throw std::invalid_argument(std::string(factory) + ": word width m = " +
                                std::to_string(m) + " outside [2, 16]");
  }
}

SchemeIteration make_iteration(std::vector<gf::Elem> g,
                               std::vector<gf::Elem> init,
                               TrajectoryKind traj) {
  SchemeIteration it;
  it.g = std::move(g);
  it.config.init = std::move(init);
  it.config.trajectory = traj;
  return it;
}

PrtScheme standard_scheme(mem::Addr n, const gf::GF2m& field) {
  assert(n > 2);
  (void)n;
  const gf::Elem mask = field.size() - 1;  // all-ones word
  PrtScheme scheme;
  scheme.field_modulus = field.modulus();

  // Iteration 1 — solid-1 ascending: every cell makes an up-transition
  // (from the power-up/previous-test zero state) and is read right
  // after; adjacent aggressors fire inside the ascending detection
  // window.
  scheme.iterations.push_back(make_iteration(
      checkerboard_g(), {mask, mask}, TrajectoryKind::kAscending));

  // Iteration 2 — solid-0 descending: every cell makes a down-
  // transition; the reversed traversal covers the opposite
  // aggressor/victim orientation.
  scheme.iterations.push_back(make_iteration(
      checkerboard_g(), {0, 0}, TrajectoryKind::kDescending));

  // Iteration 3 — checkerboard ascending: neighbouring cells differ,
  // which exposes stuck-open (sense-amp history) faults, wrong-cell
  // decoder faults and bridges between cells of equal solid value.
  scheme.iterations.push_back(make_iteration(
      checkerboard_g(), {0, mask}, TrajectoryKind::kAscending));
  return scheme;
}

}  // namespace

PrtScheme standard_scheme_bom(mem::Addr n) {
  const gf::GF2m field(0b11);  // GF(2), represented as GF(2)[z]/(z+1)
  PrtScheme scheme = standard_scheme(n, field);
  scheme.name = "PRT-3 BOM";
  return scheme;
}

PrtScheme standard_scheme_wom(mem::Addr n, unsigned m, gf::Poly2 p) {
  require_wom_width("standard_scheme_wom", m);
  if (p == 0) p = gf::first_primitive(m);
  const gf::GF2m field(p);
  PrtScheme scheme = standard_scheme(n, field);
  scheme.name = "PRT-3 WOM";
  return scheme;
}

namespace {

/// Shared construction of the extended scheme over an arbitrary field:
/// per traversal direction, a solid-1/solid-0 pair (universal (up,1) /
/// (down,0) aggressor-victim combinations for idempotent coupling),
/// the checkerboard triple (the remaining (up,0)/(down,1) combos per
/// cell parity), and a maximal-length iteration (read-logic faults and
/// background variety); plus two random-trajectory maximal-length
/// iterations that decorrelate decoder aliasing distances from the
/// short background periods.
PrtScheme extended_scheme(const gf::GF2m& field, std::vector<gf::Elem> g3) {
  const gf::Elem mask = field.size() - 1;
  PrtScheme scheme;
  scheme.field_modulus = field.modulus();
  const std::vector<gf::Elem> chk = {1, 0, 1};
  auto add = [&](std::vector<gf::Elem> g, std::vector<gf::Elem> init,
                 TrajectoryKind traj, std::uint64_t seed = 0) {
    SchemeIteration it;
    it.g = std::move(g);
    it.config.init = std::move(init);
    it.config.trajectory = traj;
    it.config.seed = seed;
    it.config.verify_pass = true;
    scheme.iterations.push_back(std::move(it));
  };
  for (auto traj :
       {TrajectoryKind::kAscending, TrajectoryKind::kDescending}) {
    // A leading solid-0 normalizes the image so the following solid-1
    // sweep makes *every* cell rise with its neighbours already at the
    // new value — the universal (up,1) aggressor/victim combination.
    add(chk, {0, 0}, traj);        // solid 0 (also: WDF on 0-cells)
    add(chk, {mask, mask}, traj);  // solid 1: all up edges
    add(chk, {0, 0}, traj);        // solid 0: all down edges
    add(chk, {0, mask}, traj);     // checkerboard
    add(chk, {mask, 0}, traj);     // anti-checkerboard
    add(chk, {0, mask}, traj);     // checkerboard again (down edges)
    add(g3, {0, 1}, traj);         // maximal-length background
    add(g3, {1, 0}, traj);         // phase-shifted maximal-length
  }
  add(g3, {1, 1}, TrajectoryKind::kRandom, /*seed=*/0x51u);
  add(g3, {1, 2 % field.size()}, TrajectoryKind::kRandom, /*seed=*/0xA7u);
  return scheme;
}

}  // namespace

PrtScheme extended_scheme_bom(mem::Addr n) {
  (void)n;
  const gf::GF2m field(0b11);
  PrtScheme scheme = extended_scheme(field, {1, 1, 1});
  scheme.name = "PRT-ext BOM";
  return scheme;
}

PrtScheme extended_scheme_wom(mem::Addr n, unsigned m, gf::Poly2 p) {
  (void)n;
  require_wom_width("extended_scheme_wom", m);
  if (p == 0) p = gf::first_primitive(m);
  const gf::GF2m field(p);
  std::vector<gf::Elem> g3;
  if (m == 4 && p == 0b10011) {
    g3 = {1, 2, 2};
  } else {
    const auto found =
        gf::find_irreducible(field, /*k=*/2, /*primitive=*/true);
    assert(found.has_value());
    g3 = found->coeffs;
  }
  PrtScheme scheme = extended_scheme(field, std::move(g3));
  scheme.name = "PRT-ext WOM";
  return scheme;
}

PrtScheme retention_scheme(mem::Addr n, unsigned m,
                           std::uint64_t pause_ticks, gf::Poly2 p) {
  if (n <= 2 || m < 1 || m > 16) {
    throw std::invalid_argument(
        "retention_scheme: need n > 2 and word width m in [1, 16] (got n = " +
        std::to_string(n) + ", m = " + std::to_string(m) + ")");
  }
  if (p == 0) p = m == 1 ? gf::Poly2{0b11} : gf::first_primitive(m);
  const gf::GF2m field(p);
  const gf::Elem mask = field.size() - 1;
  PrtScheme scheme;
  scheme.field_modulus = p;
  scheme.name = "PRT retention";
  for (gf::Elem background : {mask, gf::Elem{0}}) {
    SchemeIteration it;
    it.g = {1, 0, 1};
    it.config.init = {background, background};
    it.config.verify_pass = true;
    it.config.pause_ticks = pause_ticks;
    scheme.iterations.push_back(std::move(it));
  }
  return scheme;
}

std::uint64_t prt_ops(mem::Addr n, unsigned k, unsigned iterations) {
  assert(n > k);
  // k init writes + (n-k) sub-iterations of k reads + 1 write + k Fin
  // reads + k Init re-reads; for k = 2 this is exactly 3n.
  const std::uint64_t per_iter =
      k + static_cast<std::uint64_t>(n - k) * (k + 1) + 2 * k;
  return per_iter * iterations;
}

}  // namespace prt::core
