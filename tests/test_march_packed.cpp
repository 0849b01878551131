// The packed March replay (march::run_march_packed) at the one setting
// no campaign surface reaches: the complemented background.
//
// Every campaign compiles its March transcript with background = false,
// and the differential fuzzer (tests/test_fuzz_campaign.cpp) holds
// those replays to run_march_backgrounds on the scalar FaultyRam at
// every word width, lane word and early-abort setting.  What stays here
// is the same per-lane parity with every background complemented — at
// m = 1 the run with data index 0 = 1 — at both lane widths, with and
// without early abort, over the classical and coupling kinds and over
// the NPSF, retention and decoder kinds, plus the op accounting of
// March G's delay elements and the decided-batch stop.
#include "march/march_runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "march/march_library.hpp"
#include "mem/fault_injector.hpp"
#include "mem/packed_fault_ram.hpp"
#include "util/bitops.hpp"

namespace prt {
namespace {

/// Word widths the per-lane parity runs at: the bit loop and the word
/// loop from two planes up to the widest SimRam word.
constexpr unsigned kWidths[] = {1, 2, 4, 8, 32};

/// A 64-lane mix of the single-cell, read logic and two-cell
/// coupling/bridge kinds on an m-bit memory: victims walk the bit
/// planes, and on word-oriented memories every other round pairs the
/// victim with the next plane of its own word (intra-word coupling).
std::vector<mem::Fault> mixed_lane_universe(mem::Addr n, unsigned m = 1) {
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    const mem::BitRef v{i % n, (i / 16) % m};
    const mem::BitRef a = m > 1 && (i / 16) % 2 == 1
                              ? mem::BitRef{v.cell, (v.bit + 1) % m}
                              : mem::BitRef{(i + 1 + i % 3) % n, (i / 7) % m};
    switch (i % 16) {
      case 0: faults.push_back(mem::Fault::saf(v, 0)); break;
      case 1: faults.push_back(mem::Fault::saf(v, 1)); break;
      case 2: faults.push_back(mem::Fault::tf(v, true)); break;
      case 3: faults.push_back(mem::Fault::tf(v, false)); break;
      case 4: faults.push_back(mem::Fault::wdf(v)); break;
      case 5: faults.push_back(mem::Fault::rdf(v)); break;
      case 6: faults.push_back(mem::Fault::drdf(v)); break;
      case 7: faults.push_back(mem::Fault::irf(v)); break;
      case 8: faults.push_back(mem::Fault::sof(v)); break;
      case 9: faults.push_back(mem::Fault::cf_in(v, a)); break;
      case 10: faults.push_back(mem::Fault::cf_id(v, a, true, 1)); break;
      case 11: faults.push_back(mem::Fault::cf_id(v, a, false, 0)); break;
      case 12: faults.push_back(mem::Fault::cf_st(v, a, 1, 0)); break;
      case 13: faults.push_back(mem::Fault::cf_st(v, a, 0, 1)); break;
      case 14: faults.push_back(mem::Fault::bridge(v, a, true)); break;
      case 15: faults.push_back(mem::Fault::bridge(v, a, false)); break;
    }
  }
  return faults;
}

/// A 64-lane mix of the pattern and clock-dependent kinds on an m-bit
/// memory: static NPSF neighbourhoods (interior, border-inert and
/// no-grid-inert victims), retention lanes whose delays straddle the
/// default Del tick, and the three decoder kinds — victims walking the
/// bit planes.
std::vector<mem::Fault> npsf_retention_lane_universe(mem::Addr n,
                                                     unsigned m = 1) {
  const mem::Addr cols = 4;
  // Delays around march_runner's kDefaultDelayTicks = 100'000: decayed
  // by plain access clocking, by the first Del, only by the second Del,
  // and never.
  constexpr std::uint64_t kDelays[] = {200, 30'000, 99'999, 150'000,
                                       1'000'000'000};
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    const mem::BitRef v{i % n, (i / 3) % m};
    if (i % 16 == 15) {
      const mem::Addr other = (v.cell + 5) % n;
      faults.push_back(i % 48 == 15 ? mem::Fault::af_no_access(v.cell)
                       : i % 48 == 31
                           ? mem::Fault::af_wrong_access(v.cell, other)
                           : mem::Fault::af_multi_access(v.cell, other));
    } else if (i % 2 == 0) {
      const mem::Addr grid = (i % 8 == 6) ? 0 : cols;  // some no-grid inert
      faults.push_back(
          mem::Fault::npsf_static(v, (i / 2) % 16, (i / 32) & 1, grid));
    } else {
      faults.push_back(
          mem::Fault::retention(v, (i / 2) & 1, kDelays[(i / 2) % 5]));
    }
  }
  return faults;
}

// --- per-lane parity of one packed sweep --------------------------------

/// One packed sweep of `faults` (at most one batch) at lane word W.
template <typename W>
core::PackedVerdictT<W> packed_sweep(std::span<const mem::Fault> faults,
                                     const core::OpTranscript& t, unsigned m,
                                     bool early_abort) {
  mem::PackedFaultRamT<W> packed(t.n, m);
  for (const mem::Fault& f : faults) packed.add_fault(f);
  return march::run_march_packed(packed, t, {.early_abort = early_abort});
}

/// Each lane's detected bit must equal run_march_backgrounds' fail
/// verdict on a scalar FaultyRam with the same fault, over the
/// complemented standard backgrounds of the m-bit word, and each
/// sweep's scalar-equivalent ops must sum the reference's per-fault
/// ops — at both lane widths, with early abort off and on.
void check_complemented_lane_parity(std::span<const mem::Fault> faults,
                                    const march::MarchTest& test, mem::Addr n,
                                    unsigned m) {
  const core::OpTranscript transcript = march::make_march_transcript(
      test, n, /*background=*/true, march::kDefaultDelayTicks, m);
  std::vector<mem::Word> backgrounds = march::standard_backgrounds(m);
  for (mem::Word& bg : backgrounds) bg ^= static_cast<mem::Word>(low_mask(m));
  for (const bool early_abort : {false, true}) {
    SCOPED_TRACE(test.name + " m=" + std::to_string(m) +
                 " early_abort=" + std::to_string(early_abort));
    const auto narrow =
        packed_sweep<mem::LaneWord>(faults, transcript, m, early_abort);
    const auto wide =
        packed_sweep<mem::WideWord<8>>(faults, transcript, m, early_abort);
    mem::FaultyRam scalar(n, m);
    std::uint64_t ops = 0;
    for (unsigned lane = 0; lane < faults.size(); ++lane) {
      scalar.reset(faults[lane]);
      const march::MarchResult r = march::run_march_backgrounds(
          test, scalar, backgrounds, {.early_abort = early_abort});
      ops += r.ops;
      EXPECT_EQ(narrow.lane_detected(lane), r.fail)
          << "lane " << lane << " (" << faults[lane].describe() << ")";
      EXPECT_EQ(wide.lane_detected(lane), r.fail)
          << "lane " << lane << " (" << faults[lane].describe() << ")";
    }
    EXPECT_EQ(narrow.scalar_ops, ops);
    EXPECT_EQ(wide.scalar_ops, ops);
  }
}

// Both lane mixes across the library tests, including March G's Del
// elements (which advance the packed retention clock exactly like
// advance_time on the scalar ram) repeated once per background.
TEST(RunMarchPacked, ComplementedLaneVerdictsMatchScalar) {
  const mem::Addr n = 16;
  for (const unsigned m : kWidths) {
    for (const march::MarchTest& test :
         {march::mats_plus(), march::march_x(), march::march_y(),
          march::march_c_minus(), march::march_a(), march::march_b(),
          march::march_sr(), march::march_lr(), march::march_ss(),
          march::march_g()}) {
      check_complemented_lane_parity(mixed_lane_universe(n, m), test, n, m);
      check_complemented_lane_parity(npsf_retention_lane_universe(n, m), test,
                                     n, m);
    }
  }
}

// March G's delay elements issue no reads or writes — they only
// advance the virtual clock (which is what decays retention lanes);
// this pins the op accounting across a Del.  The scalar-equivalent
// charge is the whole test for any lane.  The replay stops after the
// element by which every lane has latched, so the physical count is
// pinned where the lane survives every element (a retention fault
// that outlasts both Dels) and only bounded where it latches.
TEST(RunMarchPacked, DelayElementsIssueNoOps) {
  const auto test = march::march_g();
  const core::OpTranscript t = march::make_march_transcript(test, 8, false);
  for (const bool survives : {false, true}) {
    SCOPED_TRACE(survives);
    mem::PackedFaultRam packed(8);
    packed.add_fault(survives ? mem::Fault::retention({3, 0}, 1, 1'000'000'000)
                              : mem::Fault::saf({3, 0}, 1));
    const core::PackedVerdict v = march::run_march_packed(packed, t);
    EXPECT_EQ(v.lane_detected(0), !survives);
    EXPECT_EQ(v.scalar_ops, test.total_ops(8));
    EXPECT_LE(packed.ops(), test.total_ops(8));
    if (survives) {
      EXPECT_EQ(packed.ops(), test.total_ops(8));
    }
  }
}

// A batch whose lanes have all latched is decided: without early
// abort the replay stops after that element, with the verdict and the
// scalar-equivalent charge of a full replay.  The same faults beside a
// lane that never latches (a CFst whose trigger state no bit holds)
// force the full replay to compare against.
TEST(RunMarchPacked, DecidedBatchStopsEarlyWithFullReplayVerdicts) {
  const mem::Addr n = 4;  // 2 * n * 32 SAF lanes and the survivor fit
  for (const unsigned m : kWidths) {
    SCOPED_TRACE(m);
    const core::OpTranscript t = march::make_march_transcript(
        march::march_c_minus(), n, false, march::kDefaultDelayTicks, m);
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
      const auto v = march::run_march_packed(packed, t);
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
