// Word-packed SIMD fault lanes (mem/packed_fault_ram, core/prt_packed,
// and the lane-batching layer in analysis/campaign_engine).
//
// The load-bearing property is bit-identity: every lane of the packed
// ram must behave exactly like a scalar FaultyRam holding that lane's
// single fault, and the packed campaign path must reproduce the serial
// scalar CampaignResult — coverage, per-class counts, escape indices
// and op totals — on any universe.
#include "core/prt_packed.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/march_campaign.hpp"
#include "live_reference.hpp"
#include "march/march_library.hpp"
#include "mem/fault_injector.hpp"
#include "mem/fault_universe.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt {
namespace {

std::uint64_t next_rand(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x ^ (x >> 29);
}

void expect_identical(const analysis::CampaignResult& a,
                      const analysis::CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

// --- fault admission -----------------------------------------------------

TEST(PackedFaultRam, RejectsIncompatibleAndOverflowingFaults) {
  mem::PackedFaultRam ram(8);
  // Retention with delay == 0 would decay instantly and forever —
  // FaultyRam::inject rejects it, and so does the lane path.
  EXPECT_THROW(ram.add_fault(mem::Fault::retention({1, 0}, 1, 0)),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::saf({8, 0}, 1)),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::cf_in({1, 0}, {8, 0})),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::cf_in({1, 0}, {1, 0})),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::af_wrong_access(1, 8)),
               std::invalid_argument);
  EXPECT_THROW(ram.add_fault(mem::Fault::af_multi_access(1, 8)),
               std::invalid_argument);
  // A kind past the last one is named by number (describe() prints "?").
  mem::Fault unknown = mem::Fault::saf({1, 0}, 1);
  unknown.kind = static_cast<mem::FaultKind>(200);
  try {
    ram.add_fault(unknown);
    ADD_FAILURE() << "accepted an unknown fault kind";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown fault kind 200"),
              std::string::npos)
        << e.what();
  }
  // Bit planes beyond the word, on either end of a pair, are rejected
  // like FaultyRam::inject rejects them, with the fault in the message.
  for (const mem::Fault& f :
       {mem::Fault::saf({3, 1}, 0), mem::Fault::cf_in({1, 1}, {2, 0}),
        mem::Fault::cf_in({1, 0}, {2, 1})}) {
    mem::FaultyRam scalar(8, 1);
    EXPECT_THROW(scalar.inject(f), std::invalid_argument) << f.describe();
    try {
      ram.add_fault(f);
      ADD_FAILURE() << "accepted " << f.describe();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(f.describe()), std::string::npos);
    }
  }
  {
    mem::PackedFaultRamT<mem::WideWord<8>> word_ram(8, 4);
    EXPECT_THROW(word_ram.add_fault(mem::Fault::tf({3, 4}, true)),
                 std::invalid_argument);
    EXPECT_THROW(word_ram.add_fault(mem::Fault::bridge({1, 3}, {2, 4}, true)),
                 std::invalid_argument);
    EXPECT_EQ(word_ram.add_fault(mem::Fault::bridge({1, 3}, {2, 3}, true)), 0u);
  }
  EXPECT_EQ(ram.lanes_used(), 0u);
  {
    // A CFst whose trigger state is beyond {0, 1} never matches a
    // stored bit: inert in FaultyRam, it takes a lane that never
    // mismatches and reads back what the scalar reference reads.
    const mem::Fault inert = mem::Fault::cf_st({1, 0}, {2, 0}, /*when=*/2, 1);
    mem::PackedFaultRam lane(8);
    EXPECT_EQ(lane.add_fault(inert), 0u);
    mem::FaultyRam scalar(8, 1);
    scalar.inject(inert);
    for (const unsigned value : {0u, 1u, 0u, 1u}) {
      for (mem::Addr a = 0; a < 8; ++a) {
        lane.write(a, mem::lane_broadcast(value));
        scalar.write(a, value, 0);
      }
      for (mem::Addr a = 0; a < 8; ++a) {
        const unsigned got = mem::lane_test(lane.read(a), 0) ? 1U : 0U;
        EXPECT_EQ(got, scalar.read(a, 0)) << "cell " << a;
        EXPECT_EQ(got, value) << "cell " << a;
      }
    }
    const auto scheme = core::extended_scheme_bom(8);
    const auto oracle = core::make_prt_oracle(scheme, 8);
    lane.reset();
    lane.add_fault(inert);
    EXPECT_EQ(core::run_prt_packed(lane, scheme, oracle) & lane.active_mask(),
              0u);
    scalar.reset(inert);
    EXPECT_FALSE(core::run_prt(scalar, scheme, oracle).detected());
  }
  for (unsigned i = 0; i < mem::PackedFaultRam::kLanes; ++i) {
    EXPECT_EQ(ram.add_fault(mem::Fault::saf({i % 8, 0}, 1)), i);
  }
  EXPECT_THROW(ram.add_fault(mem::Fault::saf({0, 0}, 0)), std::length_error);
}

// Geometry is checked before any storage exists, and the message
// names the value: a width of 33 over 2^32 - 1 cells must not attempt
// a multi-terabyte allocation first.
TEST(PackedFaultRam, RejectsBadGeometryBeforeAllocating) {
  auto message_of = [](auto&& construct) {
    try {
      construct();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no std::invalid_argument");
  };
  using Wide = mem::PackedFaultRamT<mem::WideWord<8>>;
  EXPECT_NE(message_of([] { Wide ram(0xFFFFFFFF, 33); }).find("got 33"),
            std::string::npos);
  EXPECT_NE(message_of([] { Wide ram(8, 0); }).find("got 0"),
            std::string::npos);
  EXPECT_NE(message_of([] { mem::PackedFaultRam ram(0); }).find("got 0"),
            std::string::npos);
}

TEST(PackedFaultRam, StuckAtClampsFromInjectionLikeFaultyRam) {
  mem::PackedFaultRam packed(8);
  const unsigned lane = packed.add_fault(mem::Fault::saf({3, 0}, 1));
  // Before any write, the stuck-at-1 lane already reads 1.
  EXPECT_EQ((packed.read(3) >> lane) & 1U, 1U);
  mem::FaultyRam scalar(8, 1);
  scalar.inject(mem::Fault::saf({3, 0}, 1));
  EXPECT_EQ(scalar.read(3, 0), 1U);
}

// --- per-lane differential check against FaultyRam ---------------------

using Wide = mem::WideWord<8>;

/// A lane word with independent random data in every lane.
template <typename W>
W random_lanes(std::uint64_t& x) {
  if constexpr (mem::is_wide_lane_word_v<W>) {
    W w;
    for (std::uint64_t& limb : w.limb) limb = next_rand(x);
    return w;
  } else {
    return next_rand(x);
  }
}

/// Lane `lane`'s m-bit word across the planes of one cell.
template <typename W>
mem::Word lane_word_of(const W* planes, unsigned m, unsigned lane) {
  mem::Word word = 0;
  for (unsigned b = 0; b < m; ++b) {
    if (mem::lane_test(planes[b], lane)) word |= mem::Word{1} << b;
  }
  return word;
}

/// Injects `faults` (at most one per lane of W) into one packed ram of
/// n m-bit cells and each into its own scalar FaultyRam, then drives
/// both with the same random traffic and requires every lane to hold
/// and read exactly what its scalar memory does — right after
/// injection and at every read.  At m = 1 the traffic goes through
/// read/write, above it through read_word/write_word; either way every
/// write carries independent random data per lane and plane, which is
/// what exercises the lane-disjoint fault masks (the replays only ever
/// write broadcast goldens or feedback).  With `pauses`, one step in
/// five advances both clocks by a random idle window instead.
template <typename W>
void expect_lanes_match_scalar(const std::vector<mem::Fault>& faults,
                               mem::Addr n, unsigned m, std::uint64_t seed,
                               int steps, bool pauses = false) {
  SCOPED_TRACE("m = " + std::to_string(m) + ", " +
               std::to_string(mem::LaneTraits<W>::kLanes) + " lanes");
  ASSERT_LE(faults.size(), mem::LaneTraits<W>::kLanes);
  mem::PackedFaultRamT<W> packed(n, m);
  std::vector<std::unique_ptr<mem::FaultyRam>> scalars;
  for (const mem::Fault& f : faults) {
    packed.add_fault(f);
    scalars.push_back(std::make_unique<mem::FaultyRam>(n, m));
    scalars.back()->inject(f);
  }
  std::array<W, mem::PackedFaultRamT<W>::kMaxWidth> planes{};
  // Injection-time condition enforcement (the stuck-at clamp, CFst,
  // bridge ties, NPSF pattern 0b0000 on the all-zero power-up
  // neighbourhood) must match before any traffic.
  for (mem::Addr addr = 0; addr < n; ++addr) {
    for (unsigned b = 0; b < m; ++b) planes[b] = packed.peek(addr * m + b);
    for (unsigned lane = 0; lane < scalars.size(); ++lane) {
      ASSERT_EQ(lane_word_of(planes.data(), m, lane),
                scalars[lane]->peek(addr))
          << "post-inject cell " << addr << " lane " << lane << " ("
          << faults[lane].describe() << ")";
    }
  }
  std::uint64_t x = seed;
  for (int step = 0; step < steps; ++step) {
    if (pauses && next_rand(x) % 5 == 0) {
      // A pause: both clocks advance by the same idle window, which
      // straddles every lane's decay delay sooner or later.
      const std::uint64_t ticks = 1 + next_rand(x) % 40;
      packed.advance_time(ticks);
      for (auto& scalar : scalars) scalar->advance_time(ticks);
      continue;
    }
    const mem::Addr addr = static_cast<mem::Addr>(next_rand(x) % n);
    if (next_rand(x) & 1) {
      for (unsigned b = 0; b < m; ++b) planes[b] = random_lanes<W>(x);
      if (m == 1) {
        packed.write(addr, planes[0]);
      } else {
        packed.write_word(addr, planes.data());
      }
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        scalars[lane]->write(addr, lane_word_of(planes.data(), m, lane), 0);
      }
    } else {
      if (m == 1) {
        planes[0] = packed.read(addr);
      } else {
        packed.read_word(addr, planes.data());
      }
      for (unsigned lane = 0; lane < scalars.size(); ++lane) {
        ASSERT_EQ(lane_word_of(planes.data(), m, lane),
                  scalars[lane]->read(addr, 0))
            << "step " << step << " lane " << lane << " ("
            << faults[lane].describe() << ")";
      }
    }
  }
}

/// Runs `make_faults(lanes, m)` through expect_lanes_match_scalar on
/// both lane words (a full 64- and 512-lane batch) at m in {1, 4}.
template <typename MakeFaults>
void expect_lanes_match_scalar_at_every_width(MakeFaults&& make_faults,
                                              mem::Addr n, std::uint64_t seed,
                                              int steps, bool pauses = false) {
  for (const unsigned m : {1u, 4u}) {
    expect_lanes_match_scalar<mem::LaneWord>(
        make_faults(mem::LaneTraits<mem::LaneWord>::kLanes, m), n, m, seed,
        steps, pauses);
    expect_lanes_match_scalar<Wide>(make_faults(mem::LaneTraits<Wide>::kLanes, m),
                                    n, m, seed, steps, pauses);
  }
}

TEST(PackedFaultRam, EveryLaneMatchesScalarFaultyRamOnRandomTraffic) {
  const mem::Addr n = 24;
  // Faults cycling through every single-cell kind, cell and bit plane.
  const auto make_faults = [&](unsigned lanes, unsigned m) {
    std::vector<mem::Fault> faults;
    for (unsigned i = 0; faults.size() < lanes; ++i) {
      const mem::BitRef v{i % n, (i / n) % m};
      switch (i % 9) {
        case 0: faults.push_back(mem::Fault::saf(v, 0)); break;
        case 1: faults.push_back(mem::Fault::saf(v, 1)); break;
        case 2: faults.push_back(mem::Fault::tf(v, true)); break;
        case 3: faults.push_back(mem::Fault::tf(v, false)); break;
        case 4: faults.push_back(mem::Fault::wdf(v)); break;
        case 5: faults.push_back(mem::Fault::rdf(v)); break;
        case 6: faults.push_back(mem::Fault::drdf(v)); break;
        case 7: faults.push_back(mem::Fault::irf(v)); break;
        case 8: faults.push_back(mem::Fault::sof(v)); break;
      }
    }
    return faults;
  };
  expect_lanes_match_scalar_at_every_width(make_faults, n, 0xC0FFEE, 4000);
}

// Coupling lanes: every two-cell kind across varied aggressor/victim
// pairs — across words, and above m = 1 also inside one word — must
// match a scalar FaultyRam holding that one fault, op for op, under
// random traffic.
TEST(PackedFaultRam, EveryCouplingLaneMatchesScalarFaultyRam) {
  const mem::Addr n = 24;
  const auto make_faults = [&](unsigned lanes, unsigned m) {
    std::vector<mem::Fault> faults;
    for (unsigned i = 0; faults.size() < lanes; ++i) {
      const mem::BitRef a{i % n, (i / n) % m};
      const bool intra_word = m > 1 && (i / 11) % 2 == 1;
      const mem::BitRef v =
          intra_word
              ? mem::BitRef{a.cell, (a.bit + 1 + (i / 7) % (m - 1)) % m}
              : mem::BitRef{(i + 1 + i % 5) % n, (i / 3) % m};
      switch (i % 11) {
        case 0: faults.push_back(mem::Fault::cf_in(v, a)); break;
        case 1: faults.push_back(mem::Fault::cf_id(v, a, true, 0)); break;
        case 2: faults.push_back(mem::Fault::cf_id(v, a, true, 1)); break;
        case 3: faults.push_back(mem::Fault::cf_id(v, a, false, 0)); break;
        case 4: faults.push_back(mem::Fault::cf_id(v, a, false, 1)); break;
        case 5: faults.push_back(mem::Fault::cf_st(v, a, 0, 0)); break;
        case 6: faults.push_back(mem::Fault::cf_st(v, a, 0, 1)); break;
        case 7: faults.push_back(mem::Fault::cf_st(v, a, 1, 0)); break;
        case 8: faults.push_back(mem::Fault::cf_st(v, a, 1, 1)); break;
        case 9: faults.push_back(mem::Fault::bridge(v, a, true)); break;
        case 10: faults.push_back(mem::Fault::bridge(v, a, false)); break;
      }
    }
    return faults;
  };
  expect_lanes_match_scalar_at_every_width(make_faults, n, 0xBADC0DE, 6000);
}

// Decoder lanes: the three AF kinds across varied address/alias pairs
// must match a scalar FaultyRam holding that one fault, op for op,
// under random traffic (no-access reads zeros and drops writes,
// wrong-access redirects both, multi-access opens both cells and
// wires reads AND) — every plane of the word at m = 4.
TEST(PackedFaultRam, EveryDecoderLaneMatchesScalarFaultyRam) {
  const mem::Addr n = 24;
  const auto make_faults = [&](unsigned lanes, unsigned) {
    std::vector<mem::Fault> faults;
    for (unsigned i = 0; faults.size() < lanes; ++i) {
      const mem::Addr a = i % n;
      const mem::Addr alias = (i + 1 + i % 7) % n;
      switch (i % 3) {
        case 0: faults.push_back(mem::Fault::af_no_access(a)); break;
        case 1: faults.push_back(mem::Fault::af_wrong_access(a, alias)); break;
        case 2: faults.push_back(mem::Fault::af_multi_access(a, alias)); break;
      }
    }
    return faults;
  };
  expect_lanes_match_scalar_at_every_width(make_faults, n, 0xDEC0DE, 6000);
}

// Neighbourhood lanes: static NPSF faults across interior victims,
// every pattern/forced-value combination and bit plane, plus border
// and degenerate neighbourhoods (inert on both paths — they consume a
// lane that never fires) must match a scalar FaultyRam holding that
// one fault, op for op, under random traffic.
TEST(PackedFaultRam, EveryNpsfLaneMatchesScalarFaultyRam) {
  const mem::Addr n = 36;  // 6 x 6 grid
  const mem::Addr cols = 6;
  const auto make_faults = [&](unsigned lanes, unsigned m) {
    std::vector<mem::Fault> faults;
    for (unsigned i = 0; faults.size() < lanes; ++i) {
      const unsigned plane = (i / 5) % m;
      if (i % 8 == 7) {
        // Border victims (row 0 / west edge) and a no-grid fault: inert.
        const mem::Addr victim =
            (i % 16 == 7) ? i % cols : (i / 8) * cols % n;
        faults.push_back(
            mem::Fault::npsf_static({victim, plane}, i % 16, i & 1,
                                    (i % 16 == 15) ? 0 : cols));
      } else {
        const mem::Addr row = 1 + (i / 4) % (n / cols - 2);
        const mem::Addr col = 1 + i % (cols - 2);
        faults.push_back(mem::Fault::npsf_static(
            {row * cols + col, plane}, i % 16, (i / 16) & 1, cols));
      }
    }
    return faults;
  };
  expect_lanes_match_scalar_at_every_width(make_faults, n, 0x9F5F1234, 6000);
}

// Retention lanes: decay advances analytically from the packed clock
// (one tick per access plus advance_time idle windows) and latches at
// the first read after the pause boundary — bit-exact against
// FaultyRam's per-access decay under random traffic with random pause
// schedules.
TEST(PackedFaultRam, RetentionLanesMatchScalarUnderRandomPauses) {
  const mem::Addr n = 24;
  const auto make_faults = [&](unsigned lanes, unsigned m) {
    std::vector<mem::Fault> faults;
    for (unsigned i = 0; faults.size() < lanes; ++i) {
      faults.push_back(mem::Fault::retention({i % n, (i / n) % m},
                                             /*decays_to=*/i & 1,
                                             /*delay_ticks=*/1 + (i % 7) * 13));
    }
    return faults;
  };
  expect_lanes_match_scalar_at_every_width(make_faults, n, 0xDECAF, 4000,
                                           /*pauses=*/true);
}

// --- packed PRT evaluation ---------------------------------------------

// One full batch of lane-compatible faults on a tiny array: each
// lane's detected bit must equal the scalar oracle-backed run_prt
// verdict for that fault alone.
void check_packed_verdicts_on(const core::PrtScheme& scheme, mem::Addr n,
                              const std::vector<mem::Fault>& universe) {
  ASSERT_LE(universe.size(), mem::PackedFaultRam::kLanes);
  const auto oracle = core::make_prt_oracle(scheme, n);
  mem::PackedFaultRam packed(n);
  for (const mem::Fault& f : universe) packed.add_fault(f);
  const std::uint64_t detected =
      core::run_prt_packed(packed, scheme, oracle) & packed.active_mask();
  mem::FaultyRam scalar(n, 1);
  for (unsigned lane = 0; lane < universe.size(); ++lane) {
    scalar.reset(universe[lane]);
    const core::PrtRunOptions opts{.early_abort = false,
                                   .record_iterations = false};
    const bool expected =
        core::run_prt(scalar, scheme, oracle, opts).detected();
    EXPECT_EQ(((detected >> lane) & 1U) != 0, expected)
        << "lane " << lane << " (" << universe[lane].describe() << ")";
    // A packed batch runs the complete scheme, so its op count matches
    // the scalar per-fault cost.
    EXPECT_EQ(packed.ops(), scalar.total_stats().total());
  }
}

void check_packed_verdicts(const core::PrtScheme& scheme, mem::Addr n) {
  check_packed_verdicts_on(
      scheme, n, mem::single_cell_universe(n, 1, /*read_logic=*/true));
}

/// All 9 CFin/CFid/CFst variants on 7 ascending adjacent pairs — 63
/// faults, one batch.
std::vector<mem::Fault> small_coupling_universe(mem::Addr n) {
  std::vector<std::pair<mem::Addr, mem::Addr>> pairs;
  for (mem::Addr c = 0; c < 7 && c + 1 < n; ++c) pairs.emplace_back(c, c + 1);
  return mem::coupling_universe(pairs, /*bit=*/0);
}

TEST(RunPrtPacked, LaneVerdictsMatchScalarStandardScheme) {
  check_packed_verdicts(core::standard_scheme_bom(7), 7);
}

TEST(RunPrtPacked, LaneVerdictsMatchScalarExtendedScheme) {
  check_packed_verdicts(core::extended_scheme_bom(7), 7);
}

TEST(RunPrtPacked, LaneVerdictsMatchScalarWithMisr) {
  core::PrtScheme scheme = core::standard_scheme_bom(7);
  scheme.misr_poly = 0b100101;  // degree-5 signature over the read stream
  check_packed_verdicts(scheme, 7);
}

TEST(RunPrtPacked, CouplingLaneVerdictsMatchScalarStandardScheme) {
  check_packed_verdicts_on(core::standard_scheme_bom(16), 16,
                           small_coupling_universe(16));
}

TEST(RunPrtPacked, CouplingLaneVerdictsMatchScalarExtendedScheme) {
  check_packed_verdicts_on(core::extended_scheme_bom(16), 16,
                           small_coupling_universe(16));
}

// Per-lane early abort: the detected mask is unchanged and the
// reported scalar-equivalent op count reproduces exactly what
// run_prt(..., {.early_abort = true}) issues per fault.
TEST(RunPrtPacked, EarlyAbortKeepsVerdictsAndMatchesScalarAbortOps) {
  const mem::Addr n = 16;
  for (const bool misr : {false, true}) {
    core::PrtScheme scheme = core::extended_scheme_bom(n);
    if (misr) scheme.misr_poly = 0b1000011;
    const auto oracle = core::make_prt_oracle(scheme, n);
    auto universe = mem::single_cell_universe(n, 1, /*read_logic=*/true);
    const auto coupling = small_coupling_universe(n);
    universe.insert(universe.end(), coupling.begin(), coupling.end());
    mem::FaultyRam scalar(n, 1);
    for (std::size_t base = 0; base < universe.size();
         base += mem::PackedFaultRam::kLanes) {
      const std::size_t count = std::min<std::size_t>(
          mem::PackedFaultRam::kLanes, universe.size() - base);
      mem::PackedFaultRam packed(n);
      for (std::size_t j = 0; j < count; ++j) {
        packed.add_fault(universe[base + j]);
      }
      mem::PackedFaultRam packed_abort(n);
      for (std::size_t j = 0; j < count; ++j) {
        packed_abort.add_fault(universe[base + j]);
      }
      const auto full =
          core::run_prt_packed(packed, scheme, oracle, {.early_abort = false});
      const auto abort = core::run_prt_packed(packed_abort, scheme, oracle,
                                              {.early_abort = true});
      EXPECT_EQ(full.detected & packed.active_mask(),
                abort.detected & packed_abort.active_mask());
      std::uint64_t scalar_abort_ops = 0;
      for (std::size_t j = 0; j < count; ++j) {
        scalar.reset(universe[base + j]);
        const core::PrtRunOptions opts{.early_abort = true,
                                       .record_iterations = false};
        (void)core::run_prt(scalar, scheme, oracle, opts);
        scalar_abort_ops += scalar.total_stats().total();
      }
      EXPECT_EQ(abort.scalar_ops, scalar_abort_ops)
          << "batch at " << base << " misr=" << misr;
    }
  }
}

/// NPSF interior victims (4-wide grid, varied pattern/forced values)
/// interleaved with retention faults of both polarities and varied
/// delays on every cell.
std::vector<mem::Fault> npsf_retention_universe(mem::Addr n) {
  const mem::Addr cols = 4;
  std::vector<mem::Fault> u;
  for (mem::Addr c = 0; c < n; ++c) {
    const mem::Addr row = c / cols;
    const mem::Addr col = c % cols;
    if (row >= 1 && col >= 1 && col + 1 < cols && c + cols < n) {
      u.push_back(mem::Fault::npsf_static({c, 0}, static_cast<unsigned>(c) % 16,
                                          c & 1, cols));
    }
    u.push_back(
        mem::Fault::retention({c, 0}, c & 1, 50 + (c % 5) * 100));
  }
  return u;
}

// Abort-op parity for the NPSF and retention lanes: across sizes and
// schemes (including the pause-bearing retention scheme, whose idle
// windows trip the analytic decay), the packed early-abort run must
// keep every verdict and reproduce the scalar early-abort op count
// fault for fault.
TEST(RunPrtPacked, NpsfRetentionAbortOpsMatchScalar) {
  for (const mem::Addr n : {mem::Addr{17}, mem::Addr{64}, mem::Addr{256}}) {
    const auto universe = npsf_retention_universe(n);
    for (const bool retention_pauses : {false, true}) {
      const core::PrtScheme scheme = retention_pauses
                                         ? core::retention_scheme(n, 1, 1000)
                                         : core::extended_scheme_bom(n);
      const auto oracle = core::make_prt_oracle(scheme, n);
      mem::FaultyRam scalar(n, 1);
      for (std::size_t base = 0; base < universe.size();
           base += mem::PackedFaultRam::kLanes) {
        const std::size_t count = std::min<std::size_t>(
            mem::PackedFaultRam::kLanes, universe.size() - base);
        mem::PackedFaultRam packed(n);
        mem::PackedFaultRam packed_abort(n);
        for (std::size_t j = 0; j < count; ++j) {
          packed.add_fault(universe[base + j]);
          packed_abort.add_fault(universe[base + j]);
        }
        const auto full = core::run_prt_packed(packed, scheme, oracle,
                                               {.early_abort = false});
        const auto abort = core::run_prt_packed(packed_abort, scheme, oracle,
                                                {.early_abort = true});
        EXPECT_EQ(full.detected & packed.active_mask(),
                  abort.detected & packed_abort.active_mask());
        std::uint64_t scalar_abort_ops = 0;
        for (std::size_t j = 0; j < count; ++j) {
          scalar.reset(universe[base + j]);
          const core::PrtRunOptions opts{.early_abort = true,
                                         .record_iterations = false};
          const bool expected =
              core::run_prt(scalar, scheme, oracle, opts).detected();
          scalar_abort_ops += scalar.total_stats().total();
          EXPECT_EQ(((full.detected >> j) & 1U) != 0, expected)
              << "n=" << n << " lane " << j << " ("
              << universe[base + j].describe() << ")";
        }
        EXPECT_EQ(abort.scalar_ops, scalar_abort_ops)
            << "n=" << n << " batch at " << base
            << " retention_pauses=" << retention_pauses;
      }
    }
  }
}

// --- campaign-level parity (the acceptance criterion) -------------------

analysis::CampaignResult serial_scalar_reference(
    std::span<const mem::Fault> universe, const core::PrtScheme& scheme,
    const analysis::CampaignOptions& opt) {
  return analysis::run_campaign(universe, analysis::prt_algorithm(scheme),
                                opt);
}

TEST(PackedCampaign, BitIdenticalToSerialScalarOnClassical256) {
  const mem::Addr n = 256;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (unsigned threads : {1u, 4u}) {
    analysis::EngineOptions eng;
    eng.threads = threads;
    expect_identical(reference,
                     analysis::run_prt_campaign(universe, scheme, opt, eng));
  }
}

TEST(PackedCampaign, BitIdenticalToSerialScalarOnClassical1024) {
  const mem::Addr n = 1024;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::standard_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  expect_identical(reference,
                   analysis::run_prt_campaign(universe, scheme, opt));
}

// The van de Goor universe interleaves packed (single-cell, read-logic)
// and scalar (coupling, decoder) faults within every shard, exercising
// the escape re-sort and the per-class merge.
TEST(PackedCampaign, BitIdenticalToSerialScalarOnVanDeGoor) {
  const mem::Addr n = 48;
  const auto universe = mem::van_de_goor_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  analysis::EngineOptions eng;
  eng.threads = 3;  // uneven shards split batches at arbitrary points
  expect_identical(reference,
                   analysis::run_prt_campaign(universe, scheme, opt, eng));
}

// --- early abort composed with packing ---------------------------------

void expect_identical_verdicts(const analysis::CampaignResult& a,
                               const analysis::CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
}

/// The early-abort engine must (a) reproduce the serial early-abort
/// live reference bit-for-bit *including ops*, and (b) reproduce the
/// no-abort reference's verdicts, coverage and escapes.
void check_abort_composition(std::span<const mem::Fault> universe,
                             const core::PrtScheme& scheme,
                             const analysis::CampaignOptions& opt,
                             const analysis::CampaignResult& reference) {
  const auto a = analysis::run_campaign(
      universe, testref::live_prt(scheme, /*early_abort=*/true), opt);
  const auto b = analysis::run_prt_campaign(
      universe, scheme, opt, {.threads = 2, .early_abort = true});
  expect_identical(a, b);
  expect_identical_verdicts(reference, b);
  EXPECT_LE(b.ops, reference.ops);
}

TEST(PackedCampaign, PerLaneAbortBitIdenticalOnClassical256) {
  const mem::Addr n = 256;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

TEST(PackedCampaign, PerLaneAbortBitIdenticalOnClassical1024) {
  const mem::Addr n = 1024;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::standard_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

TEST(PackedCampaign, PerLaneAbortBitIdenticalOnVanDeGoor) {
  const mem::Addr n = 48;
  const auto universe = mem::van_de_goor_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

TEST(PackedCampaign, PerLaneAbortBitIdenticalWithMisr) {
  const mem::Addr n = 64;
  const auto universe = mem::van_de_goor_universe(n);
  core::PrtScheme scheme = core::standard_scheme_bom(n);
  scheme.misr_poly = 0b1000011;  // degree-6
  analysis::CampaignOptions opt;
  opt.n = n;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));
}

TEST(PackedCampaign, MisrEnabledCampaignStaysBitIdentical) {
  const mem::Addr n = 64;
  const auto universe = mem::single_cell_universe(n, 1, /*read_logic=*/true);
  core::PrtScheme scheme = core::standard_scheme_bom(n);
  scheme.misr_poly = 0b1000011;  // degree-6
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  expect_identical(reference,
                   analysis::run_prt_campaign(universe, scheme, opt));
}

// Word-oriented campaigns ride the lanes too: m = 4 bit planes per
// cell, GF(16) feedback through the transcript's compiled tap
// matrices.  The packed engine must reproduce the serial scalar
// reference bit for bit on the full mixed universe (single-cell, read
// logic, inter- and intra-word coupling, bridges, decoder faults).
TEST(PackedCampaign, WomCampaignBitIdenticalToSerialScalar) {
  const mem::Addr n = 24;
  const unsigned m = 4;
  const auto universe = mem::make_universe(n, m, {.npsf = false});
  const auto scheme = core::standard_scheme_wom(n, m);
  analysis::CampaignOptions opt;
  opt.n = n;
  opt.m = m;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (const unsigned threads : {1u, 3u}) {
    analysis::EngineOptions eng;
    eng.threads = threads;
    const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
    expect_identical(reference, got);
  }
}

// Early abort composes with word-oriented packing: per-lane analytic
// op accounting must equal the scalar abort reference over GF(16).
// A MISR on a word-oriented scheme folds only the low min(m, degree)
// planes of each read word, so GF(256) runs with MISR degrees below,
// equal to and above m = 8, early abort off and on.
TEST(PackedCampaign, WomPerLaneAbortBitIdentical) {
  const mem::Addr n = 24;
  const unsigned m = 4;
  const auto universe = mem::single_cell_universe(n, m, /*read_logic=*/true);
  const auto scheme = core::standard_scheme_wom(n, m);
  analysis::CampaignOptions opt;
  opt.n = n;
  opt.m = m;
  check_abort_composition(universe, scheme, opt,
                          serial_scalar_reference(universe, scheme, opt));

  const unsigned m8 = 8;
  const auto universe8 = mem::single_cell_universe(n, m8, /*read_logic=*/true);
  analysis::CampaignOptions opt8;
  opt8.n = n;
  opt8.m = m8;
  // Degrees 3, 8 and 13.
  for (const gf::Poly2 misr : {gf::Poly2{0b1011}, gf::Poly2{0x11D},
                               gf::Poly2{0x201B}}) {
    SCOPED_TRACE("misr_poly = " + std::to_string(misr));
    core::PrtScheme misr_scheme = core::standard_scheme_wom(n, m8);
    misr_scheme.misr_poly = misr;
    const auto reference =
        serial_scalar_reference(universe8, misr_scheme, opt8);
    expect_identical(reference,
                     analysis::run_prt_campaign(universe8, misr_scheme, opt8));
    check_abort_composition(universe8, misr_scheme, opt8, reference);
  }
}

// NPSF + retention universes ride the lanes end to end: the packed
// campaign (with and without early abort) must reproduce the serial
// scalar reference bit for bit.
TEST(PackedCampaign, NpsfRetentionBitIdenticalToSerialScalar) {
  const mem::Addr n = 64;
  const auto universe = npsf_retention_universe(n);
  const auto scheme = core::retention_scheme(n, 1, 1000);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (const unsigned threads : {1u, 3u}) {
    analysis::EngineOptions eng;
    eng.threads = threads;
    const auto got = analysis::run_prt_campaign(universe, scheme, opt, eng);
    expect_identical(reference, got);
  }
  check_abort_composition(universe, scheme, opt, reference);
}

// --- width rule x thread-count parity --------------------------------------

// Faults per scheduler batch (analysis::detail::kSchedulerBatch) plus a
// 100-fault tail: every run, at any thread count, splits this universe
// into one 512-lane batch and one batch too thin for the wide word,
// which runs the 64-lane word.
constexpr std::size_t kMixedUniverse = 2048 + 100;

// CampaignResults must not depend on the thread count or on which
// lane word ran, with or without early abort.  The serial live
// reference is the yardstick, with early abort honoured when the
// engine aborts.
TEST(PackedCampaign, BitIdenticalAcrossThreadCountsWithNarrowTail) {
  const mem::Addr n = 256;
  auto universe = mem::classical_universe(n);
  ASSERT_GT(universe.size(), kMixedUniverse);
  universe.resize(kMixedUniverse);
  const auto scheme = core::extended_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_scalar_reference(universe, scheme, opt);
  for (const bool early_abort : {false, true}) {
    const auto scalar_ref =
        early_abort ? analysis::run_campaign(
                          universe, testref::live_prt(scheme, true), opt)
                    : reference;
    expect_identical_verdicts(reference, scalar_ref);
    analysis::CampaignResult one_thread;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      analysis::EngineOptions eng;
      eng.threads = threads;
      eng.early_abort = early_abort;
      const analysis::CampaignOutcome outcome =
          analysis::CampaignEngine(scheme, opt, eng)
              .run(universe, util::StopToken());
      EXPECT_EQ(outcome.shards_total, 2u);
      const analysis::CampaignResult& got = outcome.result;
      expect_identical(scalar_ref, got);
      if (threads == 1) {
        one_thread = got;
      } else {
        EXPECT_TRUE(one_thread == got)
            << "threads=" << threads << " early_abort=" << early_abort;
      }
    }
  }
}

}  // namespace
}  // namespace prt
