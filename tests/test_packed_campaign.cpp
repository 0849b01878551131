// Word-packed SIMD fault lanes (mem/packed_fault_ram and core/prt_packed).
//
// The load-bearing property is bit-identity: every lane of the packed
// ram must behave exactly like a scalar FaultyRam holding that lane's
// single fault, under random traffic at both lane words.  The packed
// replays and the campaign surfaces above them are held to the scalar
// reference by the differential fuzzer (tests/test_fuzz_campaign.cpp);
// what stays here is the ram itself and the decided-batch stop.
#include "core/prt_packed.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/fault_injector.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt {
namespace {

std::uint64_t next_rand(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x ^ (x >> 29);
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
    const core::OpTranscript t = core::make_op_transcript(scheme, oracle);
    core::PackedScratchT<mem::LaneWord> scratch;
    lane.reset();
    lane.add_fault(inert);
    EXPECT_EQ(core::run_prt_packed(lane, t, {}, scratch).detected &
                  lane.active_mask(),
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
/// five advances both clocks by a random idle window instead.  With
/// `writes_before`, that many random writes (and no read) land in both
/// memories before the faults are injected.
template <typename W>
void expect_lanes_match_scalar(const std::vector<mem::Fault>& faults,
                               mem::Addr n, unsigned m, std::uint64_t seed,
                               int steps, bool pauses = false,
                               int writes_before = 0) {
  SCOPED_TRACE("m = " + std::to_string(m) + ", " +
               std::to_string(mem::LaneTraits<W>::kLanes) + " lanes");
  ASSERT_LE(faults.size(), mem::LaneTraits<W>::kLanes);
  mem::PackedFaultRamT<W> packed(n, m);
  std::vector<std::unique_ptr<mem::FaultyRam>> scalars;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    scalars.push_back(std::make_unique<mem::FaultyRam>(n, m));
  }
  std::array<W, mem::PackedFaultRamT<W>::kMaxWidth> planes{};
  std::uint64_t x = seed;
  const auto write_both = [&](mem::Addr addr) {
    for (unsigned b = 0; b < m; ++b) planes[b] = random_lanes<W>(x);
    if (m == 1) {
      packed.write(addr, planes[0]);
    } else {
      packed.write_word(addr, planes.data());
    }
    for (unsigned lane = 0; lane < scalars.size(); ++lane) {
      scalars[lane]->write(addr, lane_word_of(planes.data(), m, lane), 0);
    }
  };
  for (int i = 0; i < writes_before; ++i) {
    write_both(static_cast<mem::Addr>(next_rand(x) % n));
  }
  for (std::size_t i = 0; i < faults.size(); ++i) {
    packed.add_fault(faults[i]);
    scalars[i]->inject(faults[i]);
  }
  // Injection-time condition enforcement (the stuck-at clamp, CFst,
  // bridge ties, NPSF pattern 0b0000 on the all-zero power-up
  // neighbourhood) must match before any further traffic.
  for (mem::Addr addr = 0; addr < n; ++addr) {
    for (unsigned b = 0; b < m; ++b) planes[b] = packed.peek(addr * m + b);
    for (unsigned lane = 0; lane < scalars.size(); ++lane) {
      ASSERT_EQ(lane_word_of(planes.data(), m, lane),
                scalars[lane]->peek(addr))
          << "post-inject cell " << addr << " lane " << lane << " ("
          << faults[lane].describe() << ")";
    }
  }
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
      write_both(addr);
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
                                              int steps, bool pauses = false,
                                              int writes_before = 0) {
  for (const unsigned m : {1u, 4u}) {
    expect_lanes_match_scalar<mem::LaneWord>(
        make_faults(mem::LaneTraits<mem::LaneWord>::kLanes, m), n, m, seed,
        steps, pauses, writes_before);
    expect_lanes_match_scalar<Wide>(make_faults(mem::LaneTraits<Wide>::kLanes, m),
                                    n, m, seed, steps, pauses, writes_before);
  }
}

/// `lanes` faults of n m-bit cells cycling through the first `kinds`
/// single-cell kinds (SOF is the ninth, so kinds = 8 leaves it out),
/// every cell and every bit plane.
std::vector<mem::Fault> single_cell_faults(unsigned lanes, mem::Addr n,
                                           unsigned m, unsigned kinds) {
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < lanes; ++i) {
    const mem::BitRef v{i % n, (i / n) % m};
    switch (i % kinds) {
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
}

// Single-cell lanes, in a batch beside SOF lanes and in one without any:
// reads record the sense-amp history only while the batch holds an SOF
// lane, and both batches must match FaultyRam through read (m = 1) and
// read_word (m = 4).
TEST(PackedFaultRam, EveryLaneMatchesScalarFaultyRamOnRandomTraffic) {
  const mem::Addr n = 24;
  for (const unsigned kinds : {9u, 8u}) {
    SCOPED_TRACE(kinds == 9 ? "with SOF lanes" : "without SOF lanes");
    expect_lanes_match_scalar_at_every_width(
        [&](unsigned lanes, unsigned m) {
          return single_cell_faults(lanes, n, m, kinds);
        },
        n, 0xC0FFEE, 4000);
  }
}

// An SOF lane echoes the previous read, and reads record it only while
// the batch holds an SOF lane: one added after a read would echo a
// history nobody kept, so add_fault refuses it, naming the fault, until
// reset().  Writes alone record nothing an SOF lane reads, so SOF lanes
// added after writes only must still match FaultyRam op for op.
TEST(PackedFaultRam, SofLaneAfterAReadThrows) {
  const mem::Fault sof = mem::Fault::sof({3, 0});
  const auto refusal = [&](auto& ram) -> std::string {
    try {
      ram.add_fault(sof);
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "accepted";
  };
  mem::PackedFaultRam ram(8);
  ram.add_fault(mem::Fault::saf({1, 0}, 1));
  ram.write(3, ~mem::LaneWord{0});
  (void)ram.read(3);
  const std::string message = refusal(ram);
  EXPECT_NE(message.find(sof.describe()), std::string::npos) << message;
  EXPECT_NE(message.find("after 1 read"), std::string::npos) << message;
  EXPECT_EQ(ram.lanes_used(), 1u);  // the refused fault took no lane
  ram.reset();
  EXPECT_EQ(ram.add_fault(sof), 0u);
  // A word read is a read too (here on 512 lanes).
  mem::PackedFaultRamT<Wide> wide(8, 4);
  std::array<Wide, 4> planes{};
  wide.read_word(2, planes.data());
  EXPECT_NE(refusal(wide).find(sof.describe()), std::string::npos);
  wide.reset();
  EXPECT_EQ(wide.add_fault(sof), 0u);

  const mem::Addr n = 24;
  expect_lanes_match_scalar_at_every_width(
      [&](unsigned lanes, unsigned m) {
        return single_cell_faults(lanes, n, m, 9);
      },
      n, 0x50F, 2000, false, 40);
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

// --- packed PRT replay ---------------------------------------------------

// A batch whose lanes have all latched is decided: without early
// abort the replay stops after that iteration, with the verdict and
// the scalar-equivalent charge of a full replay.  The same faults
// beside a lane that never latches (a CFst whose trigger state no bit
// holds) force the full replay to compare against.  Bit and word path.
TEST(RunPrtPacked, DecidedBatchStopsEarlyWithFullReplayVerdicts) {
  const mem::Addr n = 16;
  for (const unsigned m : {1u, 4u}) {
    SCOPED_TRACE(m);
    const core::PrtScheme scheme = m == 1 ? core::extended_scheme_bom(n)
                                          : core::extended_scheme_wom(n, m);
    const core::OpTranscript t =
        core::make_op_transcript(scheme, core::make_prt_oracle(scheme, n));
    std::vector<mem::Fault> faults;
    for (mem::Addr c = 0; c < n; ++c) {
      for (unsigned b = 0; b < m; ++b) {
        faults.push_back(mem::Fault::saf({c, b}, 0));
        faults.push_back(mem::Fault::saf({c, b}, 1));
      }
    }
    auto run = [&](bool survivor) {
      mem::PackedFaultRamT<mem::WideWord<8>> packed(n, m);
      for (const mem::Fault& f : faults) packed.add_fault(f);
      if (survivor) {
        packed.add_fault(mem::Fault::cf_st({0, 0}, {1, 0}, /*when=*/2, 1));
      }
      core::PackedScratchT<mem::WideWord<8>> scratch;
      const auto v = core::run_prt_packed(packed, t, {}, scratch);
      return std::pair{v, packed.ops()};
    };
    const auto [decided, decided_ops] = run(false);
    const auto [full, full_ops] = run(true);
    EXPECT_EQ(decided.detected_count(), faults.size());
    EXPECT_TRUE(decided.detected == full.detected);
    EXPECT_EQ(decided.scalar_ops, faults.size() * t.total_ops());
    EXPECT_EQ(full.scalar_ops, decided.scalar_ops + t.total_ops());
    EXPECT_EQ(full_ops, t.total_ops());
    EXPECT_LT(decided_ops, t.total_ops());
  }
}

}  // namespace
}  // namespace prt
