// Differential fuzzer over the campaign surfaces: the one differential
// net for the packed replays (DESIGN.md §28).  A draw is a workload (a
// random GF(2^m) PRT scheme, a canonical or retention scheme, or a
// library March test), an n x m memory, a fault universe, early abort
// on or off and 1, 2 or 4 threads.  It runs through the engine and, for
// some draws, a one-point CampaignSuite and a CampaignService request,
// plain and under a random fail point schedule (which may fail the
// request with an error; a failed checkpointed one must resume).  Every
// result must equal run_campaign over the live scalar reference
// (by_class, overall, escapes and ops).
//
// Five streams, each from its own generator: main (m in {1, 4}, n in
// [k + 1, 300]); geometry (March at m in [1, 32], WOM PRT at m in
// [2, 16]); invalid (a fault no memory of the draw holds, or m = 0 or
// 33: the engine and the suite throw std::invalid_argument, and the
// service fails the request at submit with no batch run and no retry);
// one-cell (March at n = 1 with intra-word coupling, bridge and
// retention faults); and coverage, aimed at the cells the others miss,
// PRT batches that spill their survivors among them (DESIGN.md §29).
// StreamsReachEveryCell generates every draw, runs none through a
// surface, and names each cell of required_cells() that no draw
// reaches; for a batch that may spill it replays the first ram on the
// packed path to see which lanes it spills.
//
// A failure prints at once the stream, the seed and the draw (and the
// schedule), which replays exactly.  A stream stops at its first
// disagreement and then shrinks it by ddmin over the fault indices, each
// candidate re-run through the disagreeing surface against the live
// reference, at most kShrinkRuns runs; the smallest failing case prints
// as a test to paste into this file.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_driver.hpp"
#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_service.hpp"
#include "analysis/campaign_suite.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "core/prt_packed.hpp"
#include "gf/gf2_poly.hpp"
#include "live_reference.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/bitops.hpp"
#include "util/fail_point.hpp"
#include "util/rng.hpp"

namespace prt::analysis {
namespace {

constexpr std::uint64_t kSeed = 0xF0221A7EULL;
constexpr int kDraws = 100;
constexpr int kGeometryDraws = 20;
/// The geometry stream's per-draw budget: its words are up to 32 bits
/// wide, and the reference's word accesses cost more than bit ones.
constexpr std::uint64_t kGeometryOpsBudget = 300'000;
constexpr int kInvalidDraws = 20;
constexpr int kOneCellDraws = 10;
/// The coverage stream: the 16 cells of the replay grid, eight NPSF
/// and retention draws over several batches, then six PRT batches that
/// spill.
constexpr int kCoverageDraws = 30;
/// Seeds of the geometry, invalid, one-cell and coverage streams: kSeed
/// mixed with a per-stream constant, so none shares the main stream's
/// draws.
constexpr std::uint64_t kGeometrySeed = kSeed ^ 0x9E3779B97F4A7C15ULL;
constexpr std::uint64_t kInvalidSeed = kSeed ^ 0xBF58476D1CE4E5B9ULL;
constexpr std::uint64_t kOneCellSeed = kSeed ^ 0x94D049BB133111EBULL;
constexpr std::uint64_t kCoverageSeed = kSeed ^ 0xD6E8FEB86659FD93ULL;
/// Largest universe a draw runs: past one 2048-fault batch, so some
/// draws cut two batches and a tail.
constexpr std::size_t kMaxFaults = 2300;
/// Scalar reference ops a draw may cost (faults x ops per fault), which
/// keeps the serial reference inside the test's time budget.
constexpr std::uint64_t kOpsBudget = 3'000'000;
constexpr mem::Addr kMaxN = 300;
/// Retention delays around the schemes' pauses and the March Del time.
constexpr std::uint64_t kRetentionDelays[] = {
    1, 40, 500, 5'000, 99'999, 100'001, 1'000'000'000};
/// Surface re-runs one shrink may spend, whatever the draw's size.
constexpr int kShrinkRuns = 600;

struct Draw {
  std::optional<core::PrtScheme> scheme;
  std::optional<march::MarchTest> test;
  /// The call that builds the scheme or test, as C++ source; empty for
  /// a random scheme, which prints by its fields.
  std::string workload;
  CampaignOptions opt;
  std::vector<mem::Fault> universe;
  bool early_abort = false;
  unsigned threads = 1;
  bool suite = false;
  bool service = false;

  [[nodiscard]] std::string describe() const {
    return (scheme ? scheme->name : test->name) +
           " n=" + std::to_string(opt.n) + " m=" + std::to_string(opt.m) +
           " faults=" + std::to_string(universe.size()) +
           " early_abort=" + std::to_string(early_abort) +
           " threads=" + std::to_string(threads);
  }
};

std::uint64_t pick(Xoshiro256& rng, std::uint64_t bound) {
  return rng.below(bound);
}

bool coin(Xoshiro256& rng) { return pick(rng, 2) != 0; }

/// `fn(args...)` as C++ source.
template <typename... Args>
std::string call(const char* fn, const Args&... args) {
  std::ostringstream out;
  out << fn << "(";
  const char* sep = "";
  ((out << sep << args, sep = ", "), ...);
  out << ")";
  return out.str();
}

/// Library March test `index` of all_march_tests(), with its call.
void set_library_test(Draw& d, std::size_t index) {
  d.test = march::all_march_tests()[index];
  d.workload = call("march::all_march_tests().at", index);
}

/// Early abort, 1, 2 or 4 threads, and whether the draw also runs
/// through the suite and the service.
void draw_run_options(Xoshiro256& rng, Draw& d) {
  d.early_abort = coin(rng);
  constexpr unsigned kThreads[] = {1, 2, 4};
  d.threads = kThreads[pick(rng, 3)];
  d.suite = pick(rng, 3) == 0;
  d.service = pick(rng, 3) == 0;
}

/// n in [k + 1, kMaxN], the k + 1 edge a quarter of the time.
mem::Addr draw_n(Xoshiro256& rng, unsigned k) {
  return pick(rng, 4) == 0
             ? k + 1
             : k + 1 + static_cast<mem::Addr>(pick(rng, kMaxN - k));
}

/// A random well-formed scheme over GF(2^m) (GF(2) at m = 1, z^4 + z +
/// 1 at m = 4): 1-4 iterations with k in [1, 4], non-zero g0 and gk,
/// random middle coefficients and seeds, a random trajectory, optional
/// verify pass and pause, and an optional MISR.
core::PrtScheme random_scheme(Xoshiro256& rng, unsigned m) {
  const gf::Elem size = gf::Elem{1} << m;
  auto any = [&] { return static_cast<gf::Elem>(pick(rng, size)); };
  auto nonzero = [&] { return static_cast<gf::Elem>(1 + pick(rng, size - 1)); };
  core::PrtScheme scheme;
  scheme.name = "random GF(" + std::to_string(size) + ")";
  scheme.field_modulus = m == 1 ? 0b11 : gf::first_primitive(m);
  const std::uint64_t iterations = 1 + pick(rng, 4);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    core::SchemeIteration it;
    const unsigned k = 1 + static_cast<unsigned>(pick(rng, 4));
    it.g.assign(k + 1, 0);
    it.g.front() = nonzero();
    it.g.back() = nonzero();
    for (unsigned j = 1; j < k; ++j) it.g[j] = any();
    for (unsigned j = 0; j < k; ++j) it.config.init.push_back(any());
    switch (pick(rng, 3)) {
      case 0: it.config.trajectory = core::TrajectoryKind::kAscending; break;
      case 1: it.config.trajectory = core::TrajectoryKind::kDescending; break;
      default:
        it.config.trajectory = core::TrajectoryKind::kRandom;
        it.config.seed = rng();
        break;
    }
    if (coin(rng)) {
      it.config.verify_pass = true;
      if (coin(rng)) it.config.pause_ticks = 1 + pick(rng, 2000);
    }
    scheme.iterations.push_back(std::move(it));
  }
  if (coin(rng)) scheme.misr_poly = m == 1 ? 0b1011 : 0b100101;
  return scheme;
}

unsigned max_k(const core::PrtScheme& scheme) {
  std::size_t k = 0;
  for (const core::SchemeIteration& it : scheme.iterations) {
    k = std::max(k, it.g.size() - 1);
  }
  return static_cast<unsigned>(k);
}

/// Ops one scalar PRT iteration issues on n cells.
std::uint64_t iteration_ops(const core::SchemeIteration& it, std::uint64_t n) {
  const std::uint64_t k = it.g.size() - 1;
  return k + (n - k) * (k + 1) + 2 * k + (it.config.verify_pass ? n : 0);
}

/// Ops one complete scalar run of the draw's workload issues.
std::uint64_t ops_per_fault(const Draw& d) {
  const std::uint64_t n = d.opt.n;
  if (d.test) {
    return d.test->total_ops(n) * march::standard_backgrounds(d.opt.m).size();
  }
  std::uint64_t ops = 0;
  for (const core::SchemeIteration& it : d.scheme->iterations) {
    ops += iteration_ops(it, n);
  }
  return ops;
}

/// `faults` shuffled, then cut or tiled to `size`.
std::vector<mem::Fault> shuffled(Xoshiro256& rng,
                                 std::vector<mem::Fault> faults,
                                 std::size_t size) {
  if (faults.empty()) return faults;
  for (std::size_t i = faults.size() - 1; i > 0; --i) {
    std::swap(faults[i], faults[pick(rng, i + 1)]);
  }
  std::vector<mem::Fault> out;
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(faults[i % faults.size()]);
  }
  return out;
}

/// A make_universe mix (NPSF on a grid whose column count divides n),
/// plus retention faults with delays around the schemes' pauses and the
/// March Del time, and now and then a degenerate CFst trigger state
/// (inert on the reference and on its lane); shuffled, then cut or
/// tiled to `size` faults.  A non-zero `grid` forces NPSF faults on a
/// grid that wide and 100 more retention faults.
std::vector<mem::Fault> random_universe(Xoshiro256& rng, mem::Addr n,
                                        unsigned m, std::size_t size,
                                        mem::Addr grid = 0) {
  mem::UniverseOptions u;
  u.single_cell = pick(rng, 4) != 0;
  u.read_logic = coin(rng);
  u.coupling = coin(rng);
  u.bridges = coin(rng);
  u.address_decoder = coin(rng);
  u.intra_word = coin(rng);
  u.coupling_pair_limit = 4 + pick(rng, 60);
  u.seed = rng();
  if (coin(rng) || grid != 0) {
    std::vector<mem::Addr> cols;
    for (mem::Addr c = 2; c <= n; ++c) {
      if (n % c == 0) cols.push_back(c);
    }
    u.npsf = true;
    u.npsf_grid_cols = grid != 0 ? grid : cols[pick(rng, cols.size())];
  }
  std::vector<mem::Fault> faults = mem::make_universe(n, m, u);
  const std::uint64_t retention = pick(rng, 40) + (grid != 0 ? 100 : 0);
  for (std::uint64_t i = 0; i < retention; ++i) {
    const mem::BitRef victim{static_cast<mem::Addr>(pick(rng, n)),
                             static_cast<unsigned>(pick(rng, m))};
    // The delay is drawn before the decay value: the order the recorded
    // streams drew them in, when both were arguments of one call.
    const std::uint64_t delay = kRetentionDelays[pick(rng, 7)];
    const auto decays_to = static_cast<unsigned>(pick(rng, 2));
    faults.push_back(mem::Fault::retention(victim, decays_to, delay));
  }
  if (pick(rng, 3) == 0) {
    faults.push_back(mem::Fault::cf_st({0, 0}, {1, 0}, /*when=*/2, 1));
  }
  return shuffled(rng, std::move(faults), size);
}

Draw make_draw(Xoshiro256& rng) {
  Draw d;
  const std::uint64_t kind = pick(rng, 7);
  d.opt.m = pick(rng, 3) == 0 ? 4 : 1;
  (void)pick(rng, 3);  // the retired ports axis, drawn to keep the stream
  unsigned k = 2;
  if (kind <= 1) {
    d.scheme = random_scheme(rng, d.opt.m);
    k = max_k(*d.scheme);
  } else if (kind >= 5) {
    set_library_test(d, pick(rng, march::all_march_tests().size()));
    k = 1;
  }
  d.opt.n = draw_n(rng, k);
  const mem::Addr n = d.opt.n;
  const unsigned m = d.opt.m;
  switch (kind) {
    case 2:
      d.scheme = m == 1 ? core::standard_scheme_bom(n)
                        : core::standard_scheme_wom(n, m);
      d.workload = m == 1 ? call("core::standard_scheme_bom", n)
                          : call("core::standard_scheme_wom", n, m);
      break;
    case 3:
      d.scheme = m == 1 ? core::extended_scheme_bom(n)
                        : core::extended_scheme_wom(n, m);
      d.workload = m == 1 ? call("core::extended_scheme_bom", n)
                          : call("core::extended_scheme_wom", n, m);
      break;
    case 4: {
      const std::uint64_t pause = 1 + pick(rng, 5000);
      d.scheme = core::retention_scheme(n, m, pause);
      d.workload = call("core::retention_scheme", n, m, pause);
      break;
    }
    default:
      break;
  }
  draw_run_options(rng, d);
  const std::uint64_t cap = std::clamp<std::uint64_t>(
      kOpsBudget / ops_per_fault(d), 1, kMaxFaults);
  d.universe = random_universe(rng, n, m, 1 + pick(rng, cap));
  return d;
}

/// A geometry-stream draw: a standard or extended WOM PRT scheme at m
/// in [2, 16] (`prt`) or a library March test at m in [1, 32], on the
/// main stream's n, universe and run options.
Draw make_geometry_draw(Xoshiro256& rng, bool prt) {
  Draw d;
  unsigned k = 1;
  if (prt) {
    d.opt.m = 2 + static_cast<unsigned>(pick(rng, 15));
    k = 2;
  } else {
    set_library_test(d, pick(rng, march::all_march_tests().size()));
    d.opt.m = 1 + static_cast<unsigned>(pick(rng, 32));
  }
  d.opt.n = draw_n(rng, k);
  if (prt) {
    const bool extended = coin(rng);
    d.scheme = extended ? core::extended_scheme_wom(d.opt.n, d.opt.m)
                        : core::standard_scheme_wom(d.opt.n, d.opt.m);
    d.workload = call(extended ? "core::extended_scheme_wom"
                               : "core::standard_scheme_wom",
                      d.opt.n, d.opt.m);
  }
  draw_run_options(rng, d);
  const std::uint64_t cap = std::clamp<std::uint64_t>(
      kGeometryOpsBudget / ops_per_fault(d), 1, kMaxFaults);
  d.universe = random_universe(rng, d.opt.n, d.opt.m, 1 + pick(rng, cap));
  return d;
}

/// An invalid-stream draw: a main-stream draw or a wide-word March
/// draw (the rejection does not depend on the workload) with one fault
/// its memory does not hold planted at a random index, or with an
/// out-of-range word width.  `bad` is the planted fault's index, or the
/// universe size when the geometry is what is wrong.
Draw make_invalid_draw(Xoshiro256& rng, std::size_t& bad) {
  Draw d = coin(rng) ? make_draw(rng) : make_geometry_draw(rng, false);
  const mem::Addr n = d.opt.n;
  const unsigned m = d.opt.m;
  const auto past = [&](std::uint64_t end) {
    return static_cast<mem::Addr>(end + pick(rng, 3));
  };
  const auto cell = [&] { return static_cast<mem::Addr>(pick(rng, n)); };
  mem::Fault fault;
  switch (pick(rng, 6)) {
    case 0:
      fault = mem::Fault::saf({past(n), 0}, 1);
      break;
    case 1:
      fault = mem::Fault::tf({cell(), static_cast<unsigned>(past(m))}, true);
      break;
    // The out-of-range cell is drawn before the valid one, in the order
    // the recorded stream drew them in as arguments of one call.
    case 2: {
      const mem::Addr aggressor = past(n);
      const mem::Addr victim = cell();
      fault = mem::Fault::cf_in({victim, 0}, {aggressor, 0});
      break;
    }
    case 3: {
      const mem::Addr instead = past(n);
      const mem::Addr addr = cell();
      fault = mem::Fault::af_wrong_access(addr, instead);
      break;
    }
    case 4:
      fault = mem::Fault::saf({cell(), 0}, 0);
      fault.kind = static_cast<mem::FaultKind>(
          static_cast<unsigned>(mem::FaultKind::kDrf) + 1 + pick(rng, 200));
      break;
    default:
      d.opt.m = coin(rng) ? 0 : 33;
      bad = d.universe.size();
      return d;
  }
  bad = pick(rng, d.universe.size() + 1);
  d.universe.insert(d.universe.begin() + static_cast<std::ptrdiff_t>(bad),
                    fault);
  return d;
}

/// A one-cell draw: a library March test at n = 1 and m in [1, 32] over
/// single_cell_universe(1, m, ·), plus intra-word coupling faults and
/// bridges between two bits of cell 0 (for m > 1) and retention faults
/// on it.
Draw make_one_cell_draw(Xoshiro256& rng) {
  Draw d;
  set_library_test(d, pick(rng, march::all_march_tests().size()));
  d.opt.n = 1;
  d.opt.m = 1 + static_cast<unsigned>(pick(rng, 32));
  const unsigned m = d.opt.m;
  draw_run_options(rng, d);
  d.universe = mem::single_cell_universe(1, m, coin(rng));
  // Every draw is its own statement: the order in which a call's
  // arguments are evaluated is unspecified, and the draw must replay
  // the same under every compiler.
  const auto bit = [&] { return static_cast<unsigned>(pick(rng, m)); };
  const std::uint64_t pairs = m > 1 ? pick(rng, 32) : 0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const mem::BitRef victim{0, bit()};
    // Any other bit of the word.
    const mem::BitRef aggressor{
        0, static_cast<unsigned>((victim.bit + 1 + pick(rng, m - 1)) % m)};
    const std::uint64_t kind = pick(rng, 4);
    const auto a = static_cast<unsigned>(pick(rng, 2));
    const auto b = static_cast<unsigned>(pick(rng, 2));
    switch (kind) {
      case 0:
        d.universe.push_back(mem::Fault::cf_in(victim, aggressor));
        break;
      case 1:
        d.universe.push_back(mem::Fault::cf_id(victim, aggressor, a != 0, b));
        break;
      case 2:
        d.universe.push_back(mem::Fault::cf_st(victim, aggressor, a, b));
        break;
      default:
        d.universe.push_back(mem::Fault::bridge(victim, aggressor, a != 0));
        break;
    }
  }
  const std::uint64_t retention = pick(rng, 8);
  for (std::uint64_t i = 0; i < retention; ++i) {
    const mem::BitRef victim{0, bit()};
    const auto decays_to = static_cast<unsigned>(pick(rng, 2));
    const std::uint64_t delay = kRetentionDelays[pick(rng, 7)];
    d.universe.push_back(mem::Fault::retention(victim, decays_to, delay));
  }
  return d;
}

/// A coverage-stream draw.  Draws 0-15 walk the replay grid, bits 0-3
/// of the index choosing PRT over March, m > 1, early abort and a
/// 64-lane batch; of the grid's four PRT draws at m > 1, one has no
/// MISR and the others one of degree below, at and above m.  Draws
/// 16-23 put NPSF and retention lanes under a PRT pause or March G's
/// Del, bits 0-2 of i - 16 choosing as in the grid, on a grid memory
/// and two batches (the second on 64 lanes) at 2 or 4 threads.
Draw make_spill_draw(Xoshiro256& rng, int bits);

Draw make_coverage_draw(Xoshiro256& rng, int i) {
  if (i >= 24) return make_spill_draw(rng, i - 24);
  Draw d;
  const bool grid = i < 16;
  const int bits = grid ? i : i - 16;
  const bool prt = (bits & 1) != 0;
  const bool word = (bits & 2) != 0;
  d.early_abort = (bits & 4) != 0;
  d.opt.m = word ? 2 + static_cast<unsigned>(pick(rng, prt ? 7 : 3)) : 1;
  const unsigned m = d.opt.m;
  if (prt) {
    d.scheme = random_scheme(rng, m);
    if (!grid) {
      core::PiConfig& last = d.scheme->iterations.back().config;
      last.verify_pass = true;
      last.pause_ticks = 1 + pick(rng, 5000);
    } else if (word) {
      // No MISR at i = 3, degree below, at and above m at 7, 11 and 15.
      const auto degree = static_cast<unsigned>(
          i < 8 ? 1 + pick(rng, m - 1) : i < 12 ? m : m + 1 + pick(rng, 8));
      d.scheme->misr_poly =
          i < 4 ? 0 : (gf::Poly2{1} << degree) | (rng() & low_mask(degree)) | 1;
    }
  } else if (grid) {
    set_library_test(d, pick(rng, march::all_march_tests().size()));
  } else {
    d.test = march::march_g();
    d.workload = "march::march_g()";
  }
  const unsigned k = d.scheme ? max_k(*d.scheme) : 1;
  // Off the grid, 3 to 7 (at m > 1, 3 to 5) rows and columns.
  const mem::Addr cols = 3 + static_cast<mem::Addr>(pick(rng, word ? 3 : 5));
  d.opt.n = grid ? k + 1 + static_cast<mem::Addr>(pick(rng, 64 - k))
                 : cols * (3 + static_cast<mem::Addr>(pick(rng, word ? 3 : 5)));
  constexpr unsigned kThreads[] = {1, 2, 4};
  d.threads = kThreads[(grid ? 0 : 1) + pick(rng, grid ? 3 : 2)];
  d.suite = pick(rng, 3) == 0;
  d.service = pick(rng, 3) == 0;
  // Off the grid two batches, the second on 64 lanes; on it one batch,
  // thinner than kWideMinFaults for a 64-lane cell.
  const std::uint64_t cap = kOpsBudget / ops_per_fault(d);
  const std::uint64_t wide = detail::kWideMinFaults;
  std::uint64_t size = 0;
  if (!grid) {
    size = detail::kSchedulerBatch + 1 + pick(rng, wide - 1);
  } else if ((i & 8) != 0) {
    size = 1 + pick(rng, std::min(cap, wide - 1));
  } else {
    const std::uint64_t top =
        std::clamp<std::uint64_t>(cap, wide, detail::kSchedulerBatch);
    size = wide + pick(rng, top - wide + 1);
  }
  d.universe = random_universe(rng, d.opt.n, m, size, grid ? 0 : cols);
  return d;
}

/// A spill draw (bits 0-2 of the coverage stream's draws 24-29): one
/// batch of two full rams and a tail on 64 lanes, or of one full ram
/// and a tail on 512 (bit 0), early abort off or on (bit 1), at m = 1
/// or, on 64 lanes, m > 1 (bit 2).  The scheme is random but for its
/// first iteration, which writes one non-zero background (a constant
/// sequence, as retention_scheme's iterations do), so most lanes of
/// every kind outlive it; n is the least grid memory whose later
/// iterations still issue the spill gate's ops per lane.  A full ram is
/// half a fault mix and half stuck-at lanes the first Init re-read
/// catches, so it spills after iteration 1 whatever the mix does.  The
/// mix draws coupling, CFst, bridge, NPSF, retention, SOF and the other
/// kinds alike, and puts some SOF victims at the first cell a later
/// iteration reads, where the restored sense-amp history is echoed.
Draw make_spill_draw(Xoshiro256& rng, int bits) {
  Draw d;
  const bool wide = (bits & 1) != 0;
  d.early_abort = (bits & 2) != 0;
  d.opt.m = (bits & 4) != 0 ? 2 + static_cast<unsigned>(pick(rng, 3)) : 1;
  const unsigned m = d.opt.m;
  d.scheme = random_scheme(rng, m);
  while (d.scheme->iterations.size() < 2) {
    d.scheme->iterations.push_back(random_scheme(rng, m).iterations.front());
  }
  const auto background =
      static_cast<gf::Elem>(1 + pick(rng, (gf::Elem{1} << m) - 1));
  core::SchemeIteration& first = d.scheme->iterations.front();
  first.g = {1, 0, 1};
  first.config.init = {background, background};
  const unsigned lanes = wide ? 512 : 64;
  const auto rest_ops = [&](std::uint64_t n) {
    std::uint64_t ops = 0;
    for (std::size_t i = 1; i < d.scheme->iterations.size(); ++i) {
      ops += iteration_ops(d.scheme->iterations[i], n);
    }
    return ops;
  };
  const mem::Addr cols = 3 + static_cast<mem::Addr>(pick(rng, 6));
  mem::Addr n = 3 * cols;
  while (rest_ops(n) < detail::kSpillMinOpsPerLane * lanes) n += cols;
  d.opt.n = n;
  constexpr unsigned kThreads[] = {1, 2, 4};
  d.threads = kThreads[pick(rng, 3)];
  d.suite = pick(rng, 3) == 0;
  d.service = pick(rng, 3) == 0;

  mem::UniverseOptions u;
  u.npsf = true;
  u.npsf_grid_cols = cols;
  u.coupling_pair_limit = 64;
  u.seed = rng();
  const std::vector<mem::Fault> universe = mem::make_universe(n, m, u);
  using mem::FaultKind;
  const auto is_cfst = [](FaultKind k) {
    return k == FaultKind::kCfSt0 || k == FaultKind::kCfSt1;
  };
  const auto is_bridge = [](FaultKind k) {
    return k == FaultKind::kBridgeAnd || k == FaultKind::kBridgeOr;
  };
  // Coupling (CFin, CFid), CFst, bridges, NPSF and every other kind.
  std::vector<mem::Fault> kinds[5];
  for (const mem::Fault& f : universe) {
    const std::size_t kind =
        is_cfst(f.kind)                          ? 1
        : is_bridge(f.kind)                      ? 2
        : mem::is_coupling(f.kind)               ? 0
        : f.kind == FaultKind::kNpsfStatic       ? 3
                                                 : 4;
    kinds[kind].push_back(f);
  }
  const core::OpTranscript& t = *OracleCache::global().prt(*d.scheme, n);
  const auto bit = [&] { return static_cast<unsigned>(pick(rng, m)); };
  const auto mix = [&]() -> mem::Fault {
    const std::uint64_t kind = pick(rng, 8);
    if (kind < 5) return kinds[kind][pick(rng, kinds[kind].size())];
    if (kind == 5) {
      const mem::BitRef victim{static_cast<mem::Addr>(pick(rng, n)), bit()};
      const std::uint64_t delay = kRetentionDelays[pick(rng, 7)];
      return mem::Fault::retention(victim, static_cast<unsigned>(pick(rng, 2)),
                                   delay);
    }
    if (kind == 6) {
      return mem::Fault::sof({static_cast<mem::Addr>(pick(rng, n)), bit()});
    }
    const core::PrtIterSpan& later =
        t.iterations[1 + pick(rng, t.iterations.size() - 1)];
    return mem::Fault::sof({t.recs[later.traj_begin].addr, bit()});
  };
  // Stuck at the opposite of the background, on the cell the first
  // iteration seeds first and re-reads at its end.
  const mem::Addr seeded = t.recs[t.iterations.front().traj_begin].addr;
  const auto caught = [&] {
    const unsigned p = bit();
    return mem::Fault::saf({seeded, p}, ((background >> p) & 1U) ^ 1U);
  };
  for (int ram = 0; ram < (wide ? 1 : 2); ++ram) {
    for (unsigned lane = 0; lane < lanes / 2; ++lane) d.universe.push_back(mix());
    for (unsigned lane = 0; lane < lanes / 2; ++lane) {
      d.universe.push_back(caught());
    }
  }
  const std::uint64_t tail = 1 + pick(rng, wide ? 64 : lanes / 2);
  for (std::uint64_t i = 0; i < tail; ++i) d.universe.push_back(mix());
  return d;
}

/// One fail point armed for a service request, with the request's
/// retry budget and whether it checkpoints.
struct Schedule {
  const char* point = "";
  util::FailPoint::Config config;
  int max_retries = 0;
  bool checkpoint = false;

  [[nodiscard]] std::string describe() const {
    const char* action =
        config.action == util::FailPoint::Action::kPartialWrite
            ? "partial_write"
            : "throw";
    return std::string("schedule: ") + point + "=" + action +
           " skip=" + std::to_string(config.skip) +
           " fires=" + std::to_string(config.fires) +
           " bytes=" + std::to_string(config.bytes) +
           " max_retries=" + std::to_string(max_retries) +
           " checkpoint=" + std::to_string(checkpoint);
  }
};

/// A schedule from its own generator, seeded from (kSeed, draw), so
/// the draws themselves stay what they were without schedules.
Schedule make_schedule(int draw) {
  Xoshiro256 rng(kSeed ^ (0xD1B54A32D192ED03ULL *
                          (static_cast<std::uint64_t>(draw) + 1)));
  constexpr const char* kPoints[] = {
      "campaign_service.shard", "thread_pool.task", "oracle_cache.build",
      "campaign_service.checkpoint"};
  constexpr int kFires[] = {1, 2, -1};
  Schedule s;
  const std::uint64_t point = pick(rng, 4);
  s.point = kPoints[point];
  if (point == 3 && coin(rng)) {
    s.config.action = util::FailPoint::Action::kPartialWrite;
    s.config.bytes = pick(rng, 256);
  }
  s.config.skip = static_cast<int>(pick(rng, 3));
  s.config.fires = kFires[pick(rng, 3)];
  s.max_retries = coin(rng) ? 2 : 0;
  s.checkpoint = coin(rng);
  return s;
}

// --- the surfaces against the live reference ----------------------------

/// The surfaces a draw runs through: the engine always, the suite and
/// the service (plain, then under the draw's schedule) when it selects
/// them.  The names print in shrunk cases.
enum class Surface { kEngine, kSuite, kService, kScheduledService };
constexpr const char* kSurfaceNames[] = {"kEngine", "kSuite", "kService",
                                         "kScheduledService"};

CampaignResult reference(const Draw& d) {
  return run_campaign(
      d.universe,
      d.scheme ? testref::live_prt(*d.scheme, d.early_abort)
               : testref::live_march(*d.test, d.early_abort),
      d.opt);
}

/// How `got` differs from the reference's `want`; empty when equal.
std::string difference(const CampaignResult& got, const CampaignResult& want) {
  if (got == want) return "";
  std::ostringstream out;
  out << " detected " << got.overall.detected << "/" << got.overall.total
      << " in " << got.ops << " ops, escapes " << got.escapes.size()
      << "; the reference " << want.overall.detected << "/"
      << want.overall.total << " in " << want.ops << " ops, escapes "
      << want.escapes.size();
  return out.str();
}

CampaignRequest request(const Draw& d) {
  CampaignRequest req;
  req.scheme = d.scheme;
  req.march_test = d.test;
  req.options = d.opt;
  req.early_abort = d.early_abort;
  req.universe = d.universe;
  return req;
}

/// A service outcome against the reference: complete over every shard
/// and equal.
std::string settled(const RequestOutcome& out, const CampaignResult& want) {
  if (out.status != RequestStatus::kComplete) {
    return " status " + to_string(out.status) + ": " + out.error;
  }
  if (out.shards_done != out.shards_total) {
    return " complete with " + std::to_string(out.shards_done) + " of " +
           std::to_string(out.shards_total) + " shards";
  }
  return difference(out.result, want);
}

/// The draw's request under the schedule of `draw`: it must complete
/// equal to the reference or fail with an error, and a failed
/// checkpointed request must resume, every point disarmed, to the
/// reference.
std::string scheduled_disagreement(const Draw& d, int draw,
                                   const CampaignResult& want) {
  const Schedule schedule = make_schedule(draw);
  CampaignRequest req = request(d);
  if (schedule.checkpoint) {
    req.checkpoint_path = ::testing::TempDir() + "fuzz_campaign.ckpt";
    std::remove(req.checkpoint_path.c_str());
  }
  RequestOutcome faulty;
  {
    util::FailPointScope scope;
    // A cold cache, so the oracle build runs under the schedule too.
    OracleCache::global().clear();
    util::FailPoint::arm(schedule.point, schedule.config);
    CampaignService scheduled(
        {.threads = d.threads, .max_retries = schedule.max_retries});
    faulty = scheduled.submit(req).wait();
  }
  std::string diff;
  if (faulty.status == RequestStatus::kComplete) {
    diff = difference(faulty.result, want);
  } else if (faulty.status != RequestStatus::kFailed || faulty.error.empty()) {
    diff = settled(faulty, want);
  } else if (schedule.checkpoint) {
    req.resume = true;
    CampaignService service({.threads = d.threads});
    diff = settled(service.submit(req).wait(), want);
    if (!diff.empty()) diff = " resumed:" + diff;
  }
  if (schedule.checkpoint) std::remove(req.checkpoint_path.c_str());
  return diff.empty() ? diff : " " + schedule.describe() + ":" + diff;
}

CampaignResult run_engine(const Draw& d) {
  const EngineOptions engine{.threads = d.threads,
                             .early_abort = d.early_abort};
  return d.scheme ? CampaignEngine(*d.scheme, d.opt, engine).run(d.universe)
                  : MarchCampaign(*d.test, d.opt, engine).run(d.universe);
}

/// The draw as the one configuration of a CampaignSuite.
SuiteResult run_suite(const Draw& d) {
  const EngineOptions engine{.threads = d.threads,
                             .early_abort = d.early_abort};
  const std::vector<CampaignOptions> grid = {d.opt};
  const auto universe = [&](const CampaignOptions&, std::size_t) {
    return d.universe;
  };
  const auto scheme = [&](const CampaignOptions&) { return *d.scheme; };
  return d.scheme ? CampaignSuite(scheme, engine).run(grid, universe)
                  : CampaignSuite(*d.test, engine).run(grid, universe);
}

/// How `surface` disagrees with the reference's `want` on the draw;
/// empty when it agrees.  `draw` seeds the service's schedule.
std::string disagreement(const Draw& d, Surface surface, int draw,
                         const CampaignResult& want) {
  switch (surface) {
    case Surface::kEngine:
      return difference(run_engine(d), want);
    case Surface::kSuite: {
      const SuiteResult got = run_suite(d);
      return got.configs.size() != 1
                 ? " " + std::to_string(got.configs.size()) + " configurations"
                 : difference(got.configs[0].result, want);
    }
    case Surface::kService: {
      CampaignService service({.threads = d.threads});
      return settled(service.submit(request(d)).wait(), want);
    }
    case Surface::kScheduledService:
      return scheduled_disagreement(d, draw, want);
  }
  return " unknown surface";
}

// --- shrinking -----------------------------------------------------------

/// ddmin (Zeller and Hildebrandt, "Simplifying and Isolating
/// Failure-Inducing Input", 2002) over the indices [0, size): it splits
/// the current subset into `parts` chunks and keeps the first chunk,
/// else the first complement of a chunk, on which `fails` holds; when
/// none does it doubles `parts`.  It stops once no single index can go
/// (the subset is 1-minimal) or after `cap` calls to `fails`, counted
/// in `runs`.  Precondition: `fails` holds on all of [0, size).
std::vector<std::size_t> ddmin(
    std::size_t size,
    const std::function<bool(const std::vector<std::size_t>&)>& fails,
    int cap, int& runs) {
  std::vector<std::size_t> current(size);
  std::iota(current.begin(), current.end(), std::size_t{0});
  runs = 0;
  std::size_t parts = 2;
  while (current.size() >= 2) {
    const std::size_t chunk = (current.size() + parts - 1) / parts;
    const std::size_t chunks = (current.size() + chunk - 1) / chunk;
    // Tries t < chunks are chunks, the rest complements (at two chunks
    // each complement is the other chunk).
    bool reduced = false;
    for (std::size_t t = 0; t < (chunks == 2 ? 2 : 2 * chunks); ++t) {
      if (runs == cap) return current;
      const std::size_t c = t % chunks;
      const auto at = [&](std::size_t i) {
        return current.begin() +
               static_cast<std::ptrdiff_t>(std::min(i, current.size()));
      };
      const auto first = at(c * chunk);
      const auto last = at((c + 1) * chunk);
      std::vector<std::size_t> candidate(first, last);
      if (t >= chunks) {
        candidate.assign(current.begin(), first);
        candidate.insert(candidate.end(), last, current.end());
      }
      ++runs;
      if (fails(candidate)) {
        current = std::move(candidate);
        parts = t < chunks ? 2 : std::max<std::size_t>(parts - 1, 2);
        reduced = true;
        break;
      }
    }
    if (reduced) continue;
    if (parts >= current.size()) break;
    parts = std::min(current.size(), 2 * parts);
  }
  return current;
}

/// The draw as a test to paste into this file: its workload (the call
/// that built it, or a random scheme field by field), geometry, run
/// options and all eight fields of every fault, checked through
/// `surface` (the scheduled service with the schedule of `draw`).
std::string source(const Draw& d, Surface surface, int draw) {
  constexpr const char* kTrajectories[] = {"kAscending", "kDescending",
                                           "kRandom"};
  const auto list = [](const std::vector<gf::Elem>& values) {
    std::string out;
    for (const gf::Elem v : values) {
      out += (out.empty() ? "" : ", ") + std::to_string(v);
    }
    return "{" + out + "}";
  };
  std::ostringstream out;
  out << std::boolalpha << "TEST(FuzzCampaign, ShrunkDraw" << draw
      << ") {\n  Draw d;\n  d." << (d.scheme ? "scheme" : "test") << " = ";
  if (d.workload.empty()) {
    out << "core::PrtScheme{\n      .field_modulus = "
        << d.scheme->field_modulus << ",\n      .iterations = {\n";
    for (const core::SchemeIteration& it : d.scheme->iterations) {
      const core::PiConfig& c = it.config;
      out << "          {.g = " << list(it.g) << ",\n           .config = "
          << "{.init = " << list(c.init) << ", .trajectory = "
          << "core::TrajectoryKind::"
          << kTrajectories[static_cast<unsigned>(c.trajectory)]
          << ", .seed = " << c.seed << "U, .verify_pass = " << c.verify_pass
          << ", .pause_ticks = " << c.pause_ticks << "}},\n";
    }
    out << "      },\n      .misr_poly = " << d.scheme->misr_poly
        << ",\n      .name = \"" << d.scheme->name << "\"}";
  } else {
    out << d.workload;
  }
  out << ";\n  d.opt.n = " << d.opt.n << ";\n  d.opt.m = " << d.opt.m
      << ";\n  d.early_abort = " << d.early_abort << ";\n  d.threads = "
      << d.threads << ";\n  // {kind, victim, aggressor, state, alias, "
      << "pattern, grid_cols, delay}\n  d.universe = {\n";
  for (const mem::Fault& f : d.universe) {
    out << "      {static_cast<mem::FaultKind>("
        << static_cast<unsigned>(f.kind) << "), {" << f.victim.cell << ", "
        << f.victim.bit << "}, {" << f.aggressor.cell << ", "
        << f.aggressor.bit << "}, " << f.state << ", " << f.alias << ", "
        << f.pattern << ", " << f.grid_cols << ", " << f.delay << "U},  // "
        << f.describe() << "\n";
  }
  out << "  };\n  EXPECT_EQ(disagreement(d, Surface::"
      << kSurfaceNames[static_cast<int>(surface)] << ", " << draw
      << ", reference(d)), \"\");\n}\n";
  return out.str();
}

/// Runs one draw through every surface it selects against the live
/// reference.  At the first disagreement it fails at once, so the draw
/// prints even if the shrink is cut short, then fails again printing
/// the draw's universe shrunk by ddmin to a case that still disagrees
/// there, and returns false.
bool check_draw(const Draw& d, int draw) {
  const CampaignResult want = reference(d);
  std::vector<Surface> surfaces = {Surface::kEngine};
  if (d.suite) surfaces.push_back(Surface::kSuite);
  if (d.service) {
    surfaces.insert(surfaces.end(),
                    {Surface::kService, Surface::kScheduledService});
  }
  for (const Surface surface : surfaces) {
    const std::string diff = disagreement(d, surface, draw, want);
    if (diff.empty()) continue;
    ADD_FAILURE() << kSurfaceNames[static_cast<int>(surface)]
                  << " disagrees with the live reference:" << diff
                  << "\nshrinking it (at most " << kShrinkRuns << " runs)";
    Draw shrunk = d;
    const auto keep_only = [&](const std::vector<std::size_t>& keep) {
      shrunk.universe.clear();
      for (const std::size_t i : keep) shrunk.universe.push_back(d.universe[i]);
    };
    const auto fails = [&](const std::vector<std::size_t>& keep) {
      keep_only(keep);
      return !disagreement(shrunk, surface, draw, reference(shrunk)).empty();
    };
    int runs = 0;
    keep_only(ddmin(d.universe.size(), fails, kShrinkRuns, runs));
    ADD_FAILURE() << "ddmin kept " << shrunk.universe.size() << " of "
                  << d.universe.size() << " faults in " << runs << " runs"
                  << (runs == kShrinkRuns ? " (the cap)" : "")
                  << "; the case, to paste into this file:\n"
                  << source(shrunk, surface, draw);
    return false;
  }
  return true;
}

/// Runs one invalid draw: the engine and the suite throw
/// std::invalid_argument, and the service fails the request at submit
/// with no batch run and no retry, naming the planted fault's index.
void check_invalid(const Draw& d, std::size_t bad) {
  EXPECT_THROW((void)run_engine(d), std::invalid_argument);
  EXPECT_THROW((void)run_suite(d), std::invalid_argument);
  CampaignService service({.threads = d.threads});
  const CampaignService::Ticket ticket = service.submit(request(d));
  EXPECT_TRUE(ticket.done());
  const RequestOutcome& out = ticket.wait();
  EXPECT_EQ(out.status, RequestStatus::kFailed);
  EXPECT_EQ(out.shards_done, 0u);
  if (bad < d.universe.size()) {
    EXPECT_EQ(out.error.rfind("universe fault " + std::to_string(bad) + ": ",
                              0),
              0u)
        << out.error;
  } else {
    EXPECT_EQ(out.error.rfind("CampaignOptions: m must be in [1, 32]", 0),
              0u)
        << out.error;
  }
  const CampaignService::Stats stats = service.stats();
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_EQ(stats.shard_retries, 0u);
}

std::string where(const char* stream, std::uint64_t seed, int draw,
                  const Draw& d) {
  std::ostringstream out;
  out << "stream=" << stream << " seed=0x" << std::hex << seed << std::dec
      << " draw=" << draw << ": " << d.describe();
  return out.str();
}

// --- the streams and the cells they must reach --------------------------

/// The streams checked against the reference: main, geometry, one-cell
/// and coverage.  `first` numbers a stream's first draw (and so seeds
/// its service schedules).
struct Stream {
  const char* name;
  std::uint64_t seed;
  int first;
  int count;
  Draw (*make)(Xoshiro256& rng, int i);
};
constexpr Stream kStreams[] = {
    {"main", kSeed, 0, kDraws,
     [](Xoshiro256& rng, int) { return make_draw(rng); }},
    {"geometry", kGeometrySeed, kDraws, kGeometryDraws,
     [](Xoshiro256& rng, int) { return make_geometry_draw(rng, coin(rng)); }},
    {"one-cell", kOneCellSeed, kDraws + kGeometryDraws, kOneCellDraws,
     [](Xoshiro256& rng, int) { return make_one_cell_draw(rng); }},
    {"coverage", kCoverageSeed, kDraws + kGeometryDraws + kOneCellDraws,
     kCoverageDraws, make_coverage_draw}};

void run_stream(const Stream& s) {
  Xoshiro256 rng(s.seed);
  for (int i = 0; i < s.count; ++i) {
    const Draw d = s.make(rng, i);
    SCOPED_TRACE(where(s.name, s.seed, s.first + i, d));
    if (!check_draw(d, s.first + i)) return;
  }
}

/// A replay-grid cell (`batch` names its lane word) or, with `batch`
/// null, NPSF and retention lanes under a PRT pause or a March Del.
std::string cell(bool prt, bool word, bool early_abort, const char* batch) {
  if (batch == nullptr) {
    return std::string("NPSF and retention lanes under a ") +
           (prt ? "PRT pause" : "March Del") +
           (early_abort ? ", early abort on" : ", early abort off");
  }
  return std::string(prt ? "PRT" : "March") + (word ? " m > 1" : " m = 1") +
         (early_abort ? ", early abort on, " : ", early abort off, ") + batch;
}

constexpr const char* kWideBatch = "512-lane batch";
constexpr const char* kNarrowBatch = "64-lane batch";
constexpr const char* kOtherCells[] = {
    "several batches, the last on 64 lanes", "threads > 1 over several batches",
    "word-path MISR of degree below m", "word-path MISR of degree m",
    "word-path MISR of degree above m", "a word-path batch spills"};
/// The kinds a spilled lane must hold, each in some draw.
constexpr const char* kSpilledLanes[] = {
    "a spilled coupling lane",  "a spilled CFst lane",
    "a spilled bridge lane",    "a spilled NPSF lane on a grid",
    "a spilled retention lane", "a spilled SOF lane",
    "a spilled SOF lane its resume iteration reads first"};

std::string spill_cell(unsigned lanes, bool early_abort) {
  return "a " + std::to_string(lanes) + "-lane batch spills" +
         (early_abort ? ", early abort on" : ", early abort off");
}

/// Every cell some draw must reach: the replay grid, NPSF plus
/// retention lanes under a PRT pause and a March Del (early abort off
/// and on), batches that spill at both lane words (early abort off and
/// on), kOtherCells and kSpilledLanes.
std::vector<std::string> required_cells() {
  std::vector<std::string> cells(std::begin(kOtherCells),
                                 std::end(kOtherCells));
  cells.insert(cells.end(), std::begin(kSpilledLanes), std::end(kSpilledLanes));
  for (const unsigned lanes : {64u, 512u}) {
    for (const bool early_abort : {false, true}) {
      cells.push_back(spill_cell(lanes, early_abort));
    }
  }
  for (int bits = 0; bits < 16; ++bits) {
    const bool prt = (bits & 1) != 0;
    const bool early_abort = (bits & 2) != 0;
    if (bits < 4) cells.push_back(cell(prt, false, early_abort, nullptr));
    cells.push_back(cell(prt, (bits & 4) != 0, early_abort,
                         (bits & 8) != 0 ? kWideBatch : kNarrowBatch));
  }
  return cells;
}

/// The faults the first ram of the draw's first batch spills, and the
/// iteration they resume at: that ram replayed on the packed path
/// iteration by iteration under the driver's rule (detail::spills).
/// Empty when it spills none.
template <typename W>
std::pair<std::size_t, std::vector<mem::Fault>> first_spill(
    const Draw& d, const core::OpTranscript& t, std::size_t batch) {
  constexpr unsigned kLanes = mem::PackedFaultRamT<W>::kLanes;
  mem::PackedFaultRamT<W> ram(d.opt.n, d.opt.m);
  const auto loaded = static_cast<unsigned>(std::min<std::size_t>(batch, kLanes));
  for (unsigned f = 0; f < loaded; ++f) ram.add_fault(d.universe[f]);
  core::LaneLatch<W> latch(ram.active_mask());
  core::PackedScratchT<W> scratch;
  for (std::size_t i = 0; i + 1 < t.iterations.size(); ++i) {
    if (core::run_prt_packed_iteration(ram, t, i, {.early_abort = d.early_abort},
                                       scratch, latch)) {
      break;
    }
    const W survivors = latch.pending & ~latch.mismatch;
    if (detail::spills(kLanes, loaded, mem::lane_popcount(survivors), batch,
                       t.total_ops() - t.iterations[i].ops_end())) {
      std::vector<mem::Fault> spilled;
      mem::for_each_set_lane(survivors, [&](unsigned lane) {
        spilled.push_back(d.universe[lane]);
      });
      return {i + 1, spilled};
    }
  }
  return {};
}

/// The spill cells of a PRT draw: whether its first batch's first ram
/// spills, and the kinds of the lanes it spills.  Replays only rams whose
/// rest after the first iteration reaches the gate.
void insert_spill_cells(const Draw& d, std::set<std::string>& cells) {
  const std::size_t batch =
      std::min(d.universe.size(), detail::kSchedulerBatch);
  const unsigned lanes = batch >= detail::kWideMinFaults ? 512 : 64;
  std::uint64_t rest = 0;
  for (std::size_t i = 1; i < d.scheme->iterations.size(); ++i) {
    rest += iteration_ops(d.scheme->iterations[i], d.opt.n);
  }
  if (batch <= lanes || rest < detail::kSpillMinOpsPerLane * lanes) return;
  const core::OpTranscript& t = *OracleCache::global().prt(*d.scheme, d.opt.n);
  const auto [resume, spilled] =
      lanes == 512 ? first_spill<mem::WideWord<8>>(d, t, batch)
                   : first_spill<mem::LaneWord>(d, t, batch);
  if (spilled.empty()) return;
  cells.insert(spill_cell(lanes, d.early_abort));
  if (d.opt.m > 1) cells.insert(kOtherCells[5]);
  const mem::Addr read_first = t.recs[t.iterations[resume].traj_begin].addr;
  using mem::FaultKind;
  for (const mem::Fault& f : spilled) {
    switch (f.kind) {
      case FaultKind::kCfSt0:
      case FaultKind::kCfSt1:
        if (f.state <= 1) cells.insert(kSpilledLanes[1]);
        break;
      case FaultKind::kBridgeAnd:
      case FaultKind::kBridgeOr:
        cells.insert(kSpilledLanes[2]);
        break;
      case FaultKind::kNpsfStatic:
        if (f.grid_cols != 0) cells.insert(kSpilledLanes[3]);
        break;
      case FaultKind::kDrf:
        cells.insert(kSpilledLanes[4]);
        break;
      case FaultKind::kSof:
        cells.insert(kSpilledLanes[f.victim.cell == read_first ? 6 : 5]);
        break;
      default:
        if (mem::is_coupling(f.kind)) cells.insert(kSpilledLanes[0]);
        break;
    }
  }
}

/// The cells one draw reaches.
std::set<std::string> cells_of(const Draw& d) {
  std::set<std::string> cells;
  const bool prt = d.scheme.has_value();
  const std::size_t size = d.universe.size();
  const std::size_t tail = size % detail::kSchedulerBatch;
  for (std::size_t begin = 0; begin < size; begin += detail::kSchedulerBatch) {
    cells.insert(cell(prt, d.opt.m > 1, d.early_abort,
                      size - begin >= detail::kWideMinFaults ? kWideBatch
                                                            : kNarrowBatch));
  }
  if (size > detail::kSchedulerBatch && tail != 0 &&
      tail < detail::kWideMinFaults) {
    cells.insert(kOtherCells[0]);
  }
  if (size > detail::kSchedulerBatch && d.threads > 1) {
    cells.insert(kOtherCells[1]);
  }
  if (prt && d.opt.m > 1 && d.scheme->misr_poly != 0) {
    const int degree = poly_degree(d.scheme->misr_poly);
    const auto m = static_cast<int>(d.opt.m);
    cells.insert(kOtherCells[degree < m ? 2 : degree == m ? 3 : 4]);
  }
  const auto holds = [&](mem::FaultKind kind) {
    return std::any_of(d.universe.begin(), d.universe.end(),
                       [&](const mem::Fault& f) { return f.kind == kind; });
  };
  const bool paused =
      prt ? std::any_of(d.scheme->iterations.begin(),
                        d.scheme->iterations.end(),
                        [](const core::SchemeIteration& it) {
                          return it.config.verify_pass &&
                                 it.config.pause_ticks != 0;
                        })
          : std::any_of(d.test->elements.begin(), d.test->elements.end(),
                        [](const march::MarchElement& e) {
                          return e.is_delay;
                        });
  if (paused && holds(mem::FaultKind::kNpsfStatic) &&
      holds(mem::FaultKind::kDrf)) {
    cells.insert(cell(prt, false, d.early_abort, nullptr));
  }
  if (prt) insert_spill_cells(d, cells);
  return cells;
}

TEST(FuzzCampaign, EverySurfaceMatchesTheLiveReference) {
  run_stream(kStreams[0]);
}

TEST(FuzzCampaign, WideWordsMatchTheLiveReference) { run_stream(kStreams[1]); }

TEST(FuzzCampaign, OneCellMarchMatchesTheLiveReference) {
  run_stream(kStreams[2]);
}

TEST(FuzzCampaign, CoverageCellsMatchTheLiveReference) {
  run_stream(kStreams[3]);
}

TEST(FuzzCampaign, InvalidInputIsRejectedOnEverySurface) {
  Xoshiro256 rng(kInvalidSeed);
  for (int draw = 0; draw < kInvalidDraws && !HasFatalFailure(); ++draw) {
    std::size_t bad = 0;
    const Draw d = make_invalid_draw(rng, bad);
    SCOPED_TRACE(where("invalid", kInvalidSeed, draw, d) +
                 " bad=" + std::to_string(bad));
    check_invalid(d, bad);
  }
}

// Generates every checked stream's draws and runs none of them: each
// cell of required_cells() must be reached by some draw.
TEST(FuzzCampaign, StreamsReachEveryCell) {
  std::set<std::string> reached;
  for (const Stream& s : kStreams) {
    Xoshiro256 rng(s.seed);
    for (int i = 0; i < s.count; ++i) {
      const std::set<std::string> cells = cells_of(s.make(rng, i));
      reached.insert(cells.begin(), cells.end());
    }
  }
  for (const std::string& cell : required_cells()) {
    EXPECT_EQ(reached.count(cell), 1u) << "no draw reaches the cell: " << cell;
  }
}

// ddmin reduces 2000 indices to the one pair whose presence fails,
// inside the shrinker's cap.
TEST(FuzzCampaign, DdminReturnsAPlantedPair) {
  const auto fails = [](const std::vector<std::size_t>& keep) {
    return std::count(keep.begin(), keep.end(), 617) == 1 &&
           std::count(keep.begin(), keep.end(), 1404) == 1;
  };
  int runs = 0;
  EXPECT_EQ(ddmin(2000, fails, kShrinkRuns, runs),
            (std::vector<std::size_t>{617, 1404}));
  EXPECT_LT(runs, kShrinkRuns);
}

}  // namespace
}  // namespace prt::analysis
