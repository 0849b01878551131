#include "mem/fault_universe.hpp"

#include <stdexcept>
#include <string>

namespace prt::mem {

std::vector<Fault> single_cell_universe(Addr n, unsigned m,
                                        bool read_logic) {
  std::vector<Fault> out;
  out.reserve(static_cast<std::size_t>(n) * m * (read_logic ? 9 : 5));
  for (Addr c = 0; c < n; ++c) {
    for (unsigned b = 0; b < m; ++b) {
      const BitRef v{c, b};
      out.push_back(Fault::saf(v, 0));
      out.push_back(Fault::saf(v, 1));
      out.push_back(Fault::tf(v, /*up=*/true));
      out.push_back(Fault::tf(v, /*up=*/false));
      out.push_back(Fault::wdf(v));
      if (read_logic) {
        out.push_back(Fault::rdf(v));
        out.push_back(Fault::drdf(v));
        out.push_back(Fault::irf(v));
        out.push_back(Fault::sof(v));
      }
    }
  }
  return out;
}

std::vector<std::pair<Addr, Addr>> select_pairs(Addr n, std::uint64_t limit,
                                                std::uint64_t seed) {
  std::vector<std::pair<Addr, Addr>> pairs;
  const std::uint64_t all = static_cast<std::uint64_t>(n) * (n - 1);
  if (all <= limit) {
    pairs.reserve(all);
    for (Addr a = 0; a < n; ++a) {
      for (Addr v = 0; v < n; ++v) {
        if (a != v) pairs.emplace_back(a, v);
      }
    }
    return pairs;
  }
  Xoshiro256 rng(seed);
  pairs.reserve(limit);
  for (std::uint64_t i = 0; i < limit; ++i) {
    const Addr a = static_cast<Addr>(rng.below(n));
    Addr v = static_cast<Addr>(rng.below(n - 1));
    if (v >= a) ++v;
    pairs.emplace_back(a, v);
  }
  return pairs;
}

std::vector<Fault> coupling_universe(
    const std::vector<std::pair<Addr, Addr>>& pairs, unsigned bit) {
  std::vector<Fault> out;
  out.reserve(pairs.size() * 9);
  for (const auto& [a, v] : pairs) {
    const BitRef agg{a, bit};
    const BitRef vic{v, bit};
    out.push_back(Fault::cf_in(vic, agg));
    out.push_back(Fault::cf_id(vic, agg, /*up=*/true, 0));
    out.push_back(Fault::cf_id(vic, agg, /*up=*/true, 1));
    out.push_back(Fault::cf_id(vic, agg, /*up=*/false, 0));
    out.push_back(Fault::cf_id(vic, agg, /*up=*/false, 1));
    out.push_back(Fault::cf_st(vic, agg, /*when=*/0, /*forced=*/1));
    out.push_back(Fault::cf_st(vic, agg, /*when=*/1, /*forced=*/0));
    out.push_back(Fault::cf_st(vic, agg, /*when=*/1, /*forced=*/1));
    out.push_back(Fault::cf_st(vic, agg, /*when=*/0, /*forced=*/0));
  }
  return out;
}

namespace {

/// The adjacent-pair universes serve PRT schemes, which need n > k = 2
/// cells; below two cells the last cell's wrong-access alias, n - 2,
/// would wrap past the memory.
void require_adjacent_pairs(const char* generator, Addr n) {
  if (n < 3) {
    throw std::invalid_argument(std::string(generator) +
                                ": n must be >= 3 (got " + std::to_string(n) +
                                ")");
  }
}

}  // namespace

std::vector<Fault> classical_universe(Addr n) {
  require_adjacent_pairs("classical_universe", n);
  std::vector<Fault> u;
  u.reserve(static_cast<std::size_t>(n) * 12);
  for (Addr c = 0; c < n; ++c) {
    u.push_back(Fault::saf({c, 0}, 0));
    u.push_back(Fault::saf({c, 0}, 1));
    u.push_back(Fault::tf({c, 0}, /*up=*/true));
    u.push_back(Fault::tf({c, 0}, /*up=*/false));
  }
  for (Addr c = 0; c + 1 < n; ++c) {
    for (auto [a, v] : {std::pair<Addr, Addr>{c, c + 1}, {c + 1, c}}) {
      u.push_back(Fault::cf_in({v, 0}, {a, 0}));
    }
    u.push_back(Fault::bridge({c, 0}, {c + 1, 0}, /*wired_and=*/true));
    u.push_back(Fault::bridge({c, 0}, {c + 1, 0}, /*wired_and=*/false));
  }
  for (Addr a = 0; a < n; ++a) {
    u.push_back(Fault::af_no_access(a));
    u.push_back(Fault::af_wrong_access(a, a + 1 < n ? a + 1 : n - 2));
  }
  return u;
}

std::vector<Fault> van_de_goor_universe(Addr n) {
  require_adjacent_pairs("van_de_goor_universe", n);
  std::vector<Fault> u = single_cell_universe(n, 1, /*read_logic=*/true);
  for (Addr c = 0; c + 1 < n; ++c) {
    for (auto [a, v] : {std::pair<Addr, Addr>{c, c + 1}, {c + 1, c}}) {
      u.push_back(Fault::cf_in({v, 0}, {a, 0}));
      for (unsigned when : {0u, 1u}) {
        for (unsigned forced : {0u, 1u}) {
          u.push_back(Fault::cf_st({v, 0}, {a, 0}, when, forced));
        }
      }
      for (bool up : {true, false}) {
        for (unsigned forced : {0u, 1u}) {
          u.push_back(Fault::cf_id({v, 0}, {a, 0}, up, forced));
        }
      }
    }
    u.push_back(Fault::bridge({c, 0}, {c + 1, 0}, /*wired_and=*/true));
    u.push_back(Fault::bridge({c, 0}, {c + 1, 0}, /*wired_and=*/false));
  }
  for (Addr a = 0; a < n; ++a) {
    u.push_back(Fault::af_no_access(a));
    u.push_back(Fault::af_wrong_access(a, a + 1 < n ? a + 1 : n - 2));
    u.push_back(Fault::af_multi_access(a, (a + n / 2) % n));
  }
  return u;
}

std::vector<Fault> make_universe(Addr n, unsigned m,
                                 const UniverseOptions& opt) {
  // A pair needs two cells; m is a memory word width (FaultyRam and
  // the packed lanes hold 1..32 bit planes).
  if (n < 2) {
    throw std::invalid_argument("make_universe: n must be >= 2 (got " +
                                std::to_string(n) + ")");
  }
  if (m < 1 || m > 32) {
    throw std::invalid_argument("make_universe: m must be in [1, 32] (got " +
                                std::to_string(m) + ")");
  }
  std::vector<Fault> out;

  if (opt.single_cell) {
    auto sc = single_cell_universe(n, m, opt.read_logic);
    out.insert(out.end(), sc.begin(), sc.end());
  }

  if (opt.coupling || opt.bridges) {
    const auto pairs = select_pairs(n, opt.coupling_pair_limit, opt.seed);
    if (opt.coupling) {
      auto cf = coupling_universe(pairs, /*bit=*/0);
      out.insert(out.end(), cf.begin(), cf.end());
    }
    if (opt.bridges) {
      for (const auto& [a, v] : pairs) {
        if (a < v) {  // unordered: one bridge per cell pair
          out.push_back(Fault::bridge({a, 0}, {v, 0}, /*wired_and=*/true));
          out.push_back(Fault::bridge({a, 0}, {v, 0}, /*wired_and=*/false));
        }
      }
    }
  }

  // Intra-word coupling: adjacent bit pairs inside each word.
  if (opt.intra_word && m > 1) {
    for (Addr c = 0; c < n; ++c) {
      for (unsigned b = 0; b + 1 < m; ++b) {
        const BitRef lo{c, b};
        const BitRef hi{c, b + 1};
        out.push_back(Fault::cf_in(hi, lo));
        out.push_back(Fault::cf_in(lo, hi));
        out.push_back(Fault::cf_id(hi, lo, /*up=*/true, 1));
        out.push_back(Fault::cf_id(lo, hi, /*up=*/false, 0));
        out.push_back(Fault::bridge(lo, hi, /*wired_and=*/true));
        out.push_back(Fault::bridge(lo, hi, /*wired_and=*/false));
      }
    }
  }

  if (opt.address_decoder) {
    for (Addr a = 0; a < n; ++a) {
      out.push_back(Fault::af_no_access(a));
      out.push_back(Fault::af_wrong_access(a, (a + 1) % n));
      out.push_back(Fault::af_multi_access(a, (a + n / 2) % n));
    }
  }

  if (opt.npsf) {
    Addr cols = opt.npsf_grid_cols;
    if (cols == 0) {
      cols = 1;
      while (cols * cols < n) ++cols;
    } else {
      // An explicit grid width must describe a real grid: a 1-cell-wide
      // strip has no interior cells (every victim sits on the west AND
      // east border, so the whole NPSF universe silently vanishes), and
      // a width that does not divide the cell count leaves a ragged
      // last row whose "south" neighbours do not exist.  Both are
      // configuration bugs, not universes — fail loudly with the value.
      if (cols == 1) {
        throw std::invalid_argument(
            "make_universe: npsf_grid_cols = 1 gives a 1-cell-wide grid "
            "with no interior victims");
      }
      if (n % cols != 0) {
        throw std::invalid_argument(
            "make_universe: npsf_grid_cols = " + std::to_string(cols) +
            " does not divide n = " + std::to_string(n) +
            " into whole grid rows");
      }
    }
    for (Addr c = 0; c < n; ++c) {
      const Addr row = c / cols;
      const Addr col = c % cols;
      if (row == 0 || col == 0 || col + 1 >= cols || c + cols >= n) {
        continue;
      }
      // Two representative patterns per cell keep the universe linear
      // in n (all 16 patterns x 2 values is x32 and adds little).
      out.push_back(Fault::npsf_static({c, 0}, 0b0000, 1, cols));
      out.push_back(Fault::npsf_static({c, 0}, 0b1111, 0, cols));
    }
  }

  return out;
}

}  // namespace prt::mem
