// The packed March runner (march::run_march_packed) and the
// lane-batched March campaign wrapper (analysis::MarchCampaign).
//
// The load-bearing property mirrors the packed PRT path: every lane of
// a packed March sweep must reproduce run_march_backgrounds against a
// scalar FaultyRam holding that lane's single fault — at every word
// width, at both lane widths, with and without early abort — and
// MarchCampaign must reproduce the serial run_campaign(march_algorithm)
// CampaignResult — coverage, per-class counts, escape indices and op
// totals — on any universe, any thread count, with or without early
// abort.
#include "march/march_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/march_campaign.hpp"
#include "live_reference.hpp"
#include "march/march_library.hpp"
#include "mem/fault_injector.hpp"
#include "mem/fault_universe.hpp"
#include "mem/packed_fault_ram.hpp"
#include "util/bitops.hpp"

namespace prt {
namespace {

void expect_identical(const analysis::CampaignResult& a,
                      const analysis::CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

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
/// verdict on a scalar FaultyRam with the same fault, over the standard
/// backgrounds of the m-bit word (complemented for `background`), and
/// each sweep's scalar-equivalent ops must sum the reference's
/// per-fault ops — at both lane widths, with early abort off and on.
void check_march_lane_parity(std::span<const mem::Fault> faults,
                             const march::MarchTest& test, mem::Addr n,
                             unsigned m) {
  const auto mask = static_cast<mem::Word>(low_mask(m));
  for (const bool background : {false, true}) {
    const core::OpTranscript transcript = march::make_march_transcript(
        test, n, background, march::kDefaultDelayTicks, m);
    std::vector<mem::Word> backgrounds = march::standard_backgrounds(m);
    if (background) {
      for (mem::Word& bg : backgrounds) bg ^= mask;
    }
    for (const bool early_abort : {false, true}) {
      SCOPED_TRACE(test.name + " m=" + std::to_string(m) +
                   " bg=" + std::to_string(background) +
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
}

TEST(RunMarchPacked, LaneVerdictsMatchScalarAcrossStandardTests) {
  const mem::Addr n = 16;
  for (const unsigned m : kWidths) {
    for (const march::MarchTest& test :
         {march::mats_plus(), march::march_x(), march::march_y(),
          march::march_c_minus(), march::march_a(), march::march_b(),
          march::march_ss(), march::march_g()}) {
      check_march_lane_parity(mixed_lane_universe(n, m), test, n, m);
    }
  }
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

// NPSF neighbourhood lanes, analytic retention lanes and decoder lanes
// reproduce the scalar FaultyRam verdict per lane across the standard
// tests, including March G's Del elements (which advance the packed
// retention clock exactly like advance_time on the scalar ram)
// repeated once per background.
TEST(RunMarchPacked, NpsfRetentionLanesMatchScalarAcrossStandardTests) {
  const mem::Addr n = 16;
  for (const unsigned m : kWidths) {
    for (const march::MarchTest& test :
         {march::mats_plus(), march::march_c_minus(), march::march_ss(),
          march::march_g()}) {
      check_march_lane_parity(npsf_retention_lane_universe(n, m), test, n,
                              m);
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

// Early abort over NPSF + retention lanes: identical verdicts to the
// full run, per-lane verdict parity with the scalar abort reference,
// and analytic per-lane op accounting equal to the scalar abort ops —
// for both backgrounds across memory sizes.
TEST(RunMarchPacked, NpsfRetentionAbortOpsMatchScalar) {
  const auto test = march::march_g();
  for (const mem::Addr n : {mem::Addr{17}, mem::Addr{64}, mem::Addr{256}}) {
    std::vector<mem::Fault> universe;
    constexpr std::uint64_t kDelays[] = {200, 30'000, 99'999, 150'000,
                                         1'000'000'000};
    for (mem::Addr c = 0; c < n; ++c) {
      universe.push_back(mem::Fault::npsf_static(
          {c, 0}, static_cast<unsigned>(c % 16),
          static_cast<unsigned>(c & 1), 4));
      universe.push_back(mem::Fault::retention(
          {c, 0}, static_cast<unsigned>(c & 1), kDelays[c % 5]));
    }
    for (const bool background : {false, true}) {
      const auto transcript = march::make_march_transcript(test, n, background);
      mem::FaultyRam scalar(n, 1);
      for (std::size_t base = 0; base < universe.size();
           base += mem::PackedFaultRam::kLanes) {
        const std::size_t lanes =
            std::min<std::size_t>(mem::PackedFaultRam::kLanes,
                                  universe.size() - base);
        mem::PackedFaultRam full_ram(n);
        mem::PackedFaultRam abort_ram(n);
        for (std::size_t j = 0; j < lanes; ++j) {
          full_ram.add_fault(universe[base + j]);
          abort_ram.add_fault(universe[base + j]);
        }
        const auto full = march::run_march_packed(full_ram, transcript, {});
        const auto abort =
            march::run_march_packed(abort_ram, transcript,
                                    {.early_abort = true});
        const std::uint64_t mask = full_ram.active_mask();
        EXPECT_EQ(full.detected & mask, abort.detected & mask)
            << "n=" << n << " bg=" << background << " batch at " << base;
        std::uint64_t scalar_abort_ops = 0;
        for (std::size_t j = 0; j < lanes; ++j) {
          scalar.reset(universe[base + j]);
          const auto r = march::run_march(test, scalar, background ? 1U : 0U,
                                          march::kDefaultDelayTicks,
                                          {.early_abort = true});
          scalar_abort_ops += r.ops;
          EXPECT_EQ(((abort.detected >> j) & 1U) != 0, r.fail)
              << "n=" << n << " bg=" << background << " lane " << j << " ("
              << universe[base + j].describe() << ")";
        }
        EXPECT_EQ(abort.scalar_ops, scalar_abort_ops)
            << "n=" << n << " bg=" << background << " batch at " << base;
      }
    }
  }
}

// --- campaign-level parity ----------------------------------------------

analysis::CampaignResult serial_reference(
    std::span<const mem::Fault> universe, const march::MarchTest& test,
    const analysis::CampaignOptions& opt) {
  return analysis::run_campaign(universe, analysis::march_algorithm(test),
                                opt);
}

/// The campaign, serial and threaded, with and without early abort,
/// against the serial live reference with the same abort setting.
void check_march_campaign_parity(std::span<const mem::Fault> universe,
                                 const march::MarchTest& test,
                                 const analysis::CampaignOptions& opt) {
  for (const bool early_abort : {false, true}) {
    const auto reference = analysis::run_campaign(
        universe, testref::live_march(test, early_abort), opt);
    for (const unsigned threads : {1u, 3u}) {
      expect_identical(reference, analysis::run_march_campaign(
                                      universe, test, opt,
                                      {.threads = threads,
                                       .early_abort = early_abort}));
    }
  }
}

TEST(MarchCampaign, BitIdenticalToSerialScalarOnClassical256) {
  const mem::Addr n = 256;
  analysis::CampaignOptions opt;
  opt.n = n;
  check_march_campaign_parity(mem::classical_universe(n),
                              march::march_c_minus(), opt);
}

TEST(MarchCampaign, BitIdenticalToSerialScalarOnClassical1024) {
  const mem::Addr n = 1024;
  analysis::CampaignOptions opt;
  opt.n = n;
  check_march_campaign_parity(mem::classical_universe(n),
                              march::march_c_minus(), opt);
}

// The van de Goor universe interleaves every fault class within each
// shard, exercising the per-class merge.
TEST(MarchCampaign, BitIdenticalToSerialScalarOnVanDeGoor) {
  const mem::Addr n = 64;
  analysis::CampaignOptions opt;
  opt.n = n;
  check_march_campaign_parity(mem::van_de_goor_universe(n), march::march_ss(),
                              opt);
}

// NPSF + retention universes ride the March lanes end to end: serial
// and threaded campaigns, with and without early abort, all
// bit-identical to the live reference on a grid memory under March
// G's Del schedule.
TEST(MarchCampaign, NpsfRetentionBitIdenticalToSerialScalar) {
  const mem::Addr n = 48;
  std::vector<mem::Fault> universe;
  constexpr std::uint64_t kDelays[] = {200, 30'000, 99'999, 150'000,
                                       1'000'000'000};
  for (mem::Addr c = 0; c < n; ++c) {
    universe.push_back(mem::Fault::npsf_static(
        {c, 0}, static_cast<unsigned>(c % 16), static_cast<unsigned>(c & 1),
        4));
    universe.push_back(mem::Fault::retention(
        {c, 0}, static_cast<unsigned>(c & 1), kDelays[c % 5]));
  }
  analysis::CampaignOptions opt;
  opt.n = n;
  check_march_campaign_parity(universe, march::march_g(), opt);
}

// Word-oriented campaigns ride the lanes too: four bit planes per cell
// and three data backgrounds in one transcript, bit-identical to the
// live reference over single-cell, read-logic, decoder and (intra- and
// inter-word) coupling faults, serial and threaded, with and without
// early abort.
TEST(MarchCampaign, WomCampaignBitIdenticalToSerialScalar) {
  const mem::Addr n = 32;
  const unsigned m = 4;
  const auto universe = mem::make_universe(
      n, m, {.bridges = false, .coupling_pair_limit = 24});
  analysis::CampaignOptions opt;
  opt.n = n;
  opt.m = m;
  check_march_campaign_parity(universe, march::march_c_minus(), opt);
}

// --- lane-width parity ---------------------------------------------------

// One WideWord<8> March sweep reproduces, lane for lane, the verdicts
// of the 64-lane sweeps over the same faults — the only March
// wide-replay parity check (the PRT half lives in test_lane_word.cpp).
TEST(RunMarchPacked, WideSweepMatchesNarrowGroups) {
  const mem::Addr n = 16;
  using Wide = mem::WideWord<8>;
  std::vector<mem::Fault> universe;
  while (universe.size() < mem::LaneTraits<Wide>::kLanes) {
    const auto mixed = mixed_lane_universe(n);
    universe.insert(universe.end(), mixed.begin(), mixed.end());
  }
  for (const march::MarchTest& test :
       {march::march_c_minus(), march::march_g()}) {
    for (const bool background : {false, true}) {
      const core::OpTranscript transcript =
          march::make_march_transcript(test, n, background);
      mem::PackedFaultRamT<Wide> wide(n);
      for (const mem::Fault& f : universe) wide.add_fault(f);
      const auto wide_verdict =
          march::run_march_packed(wide, transcript, march::MarchRunOptions{});
      for (std::size_t base = 0; base < universe.size(); base += 64) {
        const std::size_t count =
            std::min<std::size_t>(64, universe.size() - base);
        mem::PackedFaultRam narrow(n);
        for (std::size_t j = 0; j < count; ++j) {
          narrow.add_fault(universe[base + j]);
        }
        const std::uint64_t detected =
            march::run_march_packed(test, narrow, background) &
            narrow.active_mask();
        for (unsigned lane = 0; lane < count; ++lane) {
          EXPECT_EQ(
              wide_verdict.lane_detected(static_cast<unsigned>(base) + lane),
              ((detected >> lane) & 1U) != 0)
              << test.name << " bg=" << background << " fault "
              << (base + lane) << " (" << universe[base + lane].describe()
              << ")";
        }
      }
    }
  }
}

// Campaign-level width rule: every run splits this universe into one
// 2048-fault batch on the 512-lane word and a 100-fault tail on the
// 64-lane word, at any thread count.  Results must be bit-identical
// across thread counts x early abort and match the live reference.
TEST(MarchCampaign, BitIdenticalAcrossThreadCountsWithNarrowTail) {
  const mem::Addr n = 256;
  auto universe = mem::classical_universe(n);
  ASSERT_GT(universe.size(), 2048u + 100u);
  universe.resize(2048 + 100);
  const auto test = march::march_c_minus();
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto reference = serial_reference(universe, test, opt);
  for (const bool early_abort : {false, true}) {
    const auto scalar_ref = analysis::run_campaign(
        universe, testref::live_march(test, early_abort), opt);
    EXPECT_EQ(scalar_ref.overall, reference.overall);
    EXPECT_EQ(scalar_ref.escapes, reference.escapes);
    analysis::CampaignResult one_thread;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      analysis::MarchEngineOptions eng;
      eng.threads = threads;
      eng.early_abort = early_abort;
      const analysis::CampaignOutcome outcome =
          analysis::MarchCampaign(test, opt, eng)
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
