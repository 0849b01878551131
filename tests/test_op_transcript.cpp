// Op-transcript compiler and packed replays (core/op_transcript.hpp,
// core::run_prt_packed, march::make_march_transcript,
// march::run_march_packed).
//
// The load-bearing property: a compiled transcript replayed on packed
// lanes must behave, lane for lane, exactly like the live oracle-driven
// run (core::run_prt, march::run_march) on a FaultyRam holding that
// lane's fault, because the campaign engines swap the live loops for
// replays and promise bit-identical CampaignResults.  Over randomized
// schemes, every standard March test, both backgrounds and n in
// {17, 64, 256}: the fault-free live run passes and issues exactly the
// transcript's total_ops(), an all-fault-free packed batch passes, and
// on a mixed batch every lane's verdict and the batch's scalar-equivalent
// ops match the live runs, with and without early abort.
#include "core/op_transcript.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/march_campaign.hpp"
#include "core/prt_engine.hpp"
#include "core/prt_packed.hpp"
#include "live_reference.hpp"
#include "march/march_library.hpp"
#include "march/march_runner.hpp"
#include "mem/fault_injector.hpp"
#include "mem/fault_universe.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt {
namespace {

std::uint64_t next_rand(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// One 64-lane batch mixing every lane-compatible family: single-cell
/// and read-logic kinds, coupling and bridge pairs, decoder faults,
/// NPSF neighbourhoods on a 4-wide grid and retention faults whose
/// delays straddle the pauses.  Cells spread over the whole array.
std::vector<mem::Fault> mixed_batch(mem::Addr n) {
  constexpr std::uint64_t kDelays[] = {50, 500, 5'000, 99'999, 150'000};
  std::vector<mem::Fault> faults;
  for (unsigned i = 0; faults.size() < mem::PackedFaultRam::kLanes; ++i) {
    const mem::BitRef v{(7 * i) % n, 0};
    const mem::BitRef a{(7 * i + 1 + i % 3) % n, 0};
    const unsigned flip = (i / 16) & 1;  // alternates the variants
    const unsigned forced = (i / 32) & 1;
    switch (i % 16) {
      case 0: faults.push_back(mem::Fault::saf(v, flip)); break;
      case 1: faults.push_back(mem::Fault::tf(v, flip != 0)); break;
      case 2: faults.push_back(mem::Fault::wdf(v)); break;
      case 3: faults.push_back(mem::Fault::rdf(v)); break;
      case 4: faults.push_back(mem::Fault::drdf(v)); break;
      case 5: faults.push_back(mem::Fault::irf(v)); break;
      case 6: faults.push_back(mem::Fault::sof(v)); break;
      case 7: faults.push_back(mem::Fault::cf_in(v, a)); break;
      case 8:
        faults.push_back(mem::Fault::cf_id(v, a, flip != 0, forced));
        break;
      case 9: faults.push_back(mem::Fault::cf_st(v, a, flip, forced)); break;
      case 10: faults.push_back(mem::Fault::bridge(v, a, flip != 0)); break;
      case 11: faults.push_back(mem::Fault::af_no_access(v.cell)); break;
      case 12:
        faults.push_back(mem::Fault::af_wrong_access(v.cell, a.cell));
        break;
      case 13:
        faults.push_back(mem::Fault::af_multi_access(v.cell, a.cell));
        break;
      case 14:
        faults.push_back(mem::Fault::npsf_static(v, (7 * i) % 16, flip, 4));
        break;
      default:
        faults.push_back(
            mem::Fault::retention(v, flip, kDelays[(i + i / 16) % 5]));
        break;
    }
  }
  return faults;
}

/// The packed replay against the live reference on `n` cells.
/// `replay(ram, early_abort)` runs the transcript over the packed ram and
/// returns its verdict; `live(ram, early_abort)` runs the live reference
/// on a FaultyRam and returns detected.  The fault-free live run must
/// pass with exactly `total_ops` ops, an empty batch (every lane
/// fault-free) must pass, and each lane of `universe`, cut into 64-lane
/// batches, must match the live run on its fault — verdicts and the
/// batch's ops, with and without early abort.
template <typename Replay, typename Live>
void expect_replay_matches_live(mem::Addr n, std::uint64_t total_ops,
                                const std::vector<mem::Fault>& universe,
                                Replay&& replay, Live&& live,
                                const std::string& label) {
  mem::FaultyRam scalar(n, 1);
  EXPECT_FALSE(live(scalar, false)) << label;
  EXPECT_EQ(scalar.total_stats().total(), total_ops) << label;
  mem::PackedFaultRam empty(n);
  EXPECT_EQ(replay(empty, false).detected, 0u) << label;
  for (const bool abort : {false, true}) {
    for (std::size_t base = 0; base < universe.size();
         base += mem::PackedFaultRam::kLanes) {
      const std::size_t lanes = std::min<std::size_t>(
          mem::PackedFaultRam::kLanes, universe.size() - base);
      mem::PackedFaultRam packed(n);
      for (std::size_t j = 0; j < lanes; ++j) {
        packed.add_fault(universe[base + j]);
      }
      const auto verdict = replay(packed, abort);
      std::uint64_t ops = 0;
      for (std::size_t j = 0; j < lanes; ++j) {
        const mem::Fault& f = universe[base + j];
        scalar.reset(f);
        const bool detected = live(scalar, abort);
        ops += scalar.total_stats().total();
        EXPECT_EQ(verdict.lane_detected(static_cast<unsigned>(j)), detected)
            << label << " abort=" << abort << " " << f.describe();
      }
      EXPECT_EQ(verdict.scalar_ops, ops)
          << label << " abort=" << abort << " batch at " << base;
    }
  }
}

void expect_prt_replay_matches_live(const core::PrtScheme& scheme,
                                    mem::Addr n,
                                    const std::vector<mem::Fault>& universe,
                                    const std::string& label) {
  const core::PrtOracle oracle = core::make_prt_oracle(scheme, n);
  const core::OpTranscript t = core::make_op_transcript(scheme, oracle);
  core::PackedScratch scratch;
  expect_replay_matches_live(
      n, t.total_ops(), universe,
      [&](mem::PackedFaultRam& ram, bool abort) {
        return core::run_prt_packed(ram, t, {.early_abort = abort}, scratch);
      },
      [&](mem::FaultyRam& ram, bool abort) {
        return core::run_prt(ram, scheme, oracle,
                             {.early_abort = abort, .record_iterations = false})
            .detected();
      },
      label);
}

/// A randomized packable scheme: k in {2, 3}, random GF(2) generator
/// (g0 = gk = 1), random seeds, trajectory and verify/pause/MISR
/// configuration — the property-test input space.
core::PrtScheme random_packable_scheme(std::uint64_t& x) {
  core::PrtScheme scheme;
  scheme.name = "random";
  const std::size_t iterations = 2 + next_rand(x) % 3;
  for (std::size_t i = 0; i < iterations; ++i) {
    core::SchemeIteration it;
    const unsigned k = 2 + next_rand(x) % 2;
    it.g.assign(k + 1, 0);
    it.g.front() = 1;
    it.g.back() = 1;
    for (unsigned j = 1; j < k; ++j) it.g[j] = next_rand(x) & 1;
    for (unsigned j = 0; j < k; ++j) {
      it.config.init.push_back(static_cast<gf::Elem>(next_rand(x) & 1));
    }
    switch (next_rand(x) % 3) {
      case 0: it.config.trajectory = core::TrajectoryKind::kAscending; break;
      case 1: it.config.trajectory = core::TrajectoryKind::kDescending; break;
      default:
        it.config.trajectory = core::TrajectoryKind::kRandom;
        it.config.seed = next_rand(x);
        break;
    }
    if (next_rand(x) & 1) {
      it.config.verify_pass = true;
      if (next_rand(x) & 1) it.config.pause_ticks = 1 + next_rand(x) % 500;
    }
    scheme.iterations.push_back(std::move(it));
  }
  if (next_rand(x) & 1) scheme.misr_poly = 0b1011;  // z^3 + z + 1
  return scheme;
}

TEST(OpTranscript, PackedReplayMatchesLiveRunOnCanonicalSchemes) {
  for (mem::Addr n : {17u, 64u, 256u}) {
    const auto batch = mixed_batch(n);
    expect_prt_replay_matches_live(core::standard_scheme_bom(n), n, batch,
                                   "PRT-3 n=" + std::to_string(n));
    expect_prt_replay_matches_live(core::extended_scheme_bom(n), n, batch,
                                   "PRT-ext n=" + std::to_string(n));
    expect_prt_replay_matches_live(core::retention_scheme(n, 1, 5000), n,
                                   batch, "retention n=" + std::to_string(n));
  }
}

TEST(OpTranscript, PackedReplayMatchesLiveRunOnRandomPackableSchemes) {
  std::uint64_t x = 0x7EA5C217;
  for (int round = 0; round < 12; ++round) {
    const core::PrtScheme scheme = random_packable_scheme(x);
    for (mem::Addr n : {17u, 64u, 256u}) {
      ASSERT_NO_THROW(core::validate_prt_scheme(scheme, n, 1));
      expect_prt_replay_matches_live(
          scheme, n, mixed_batch(n),
          "random round " + std::to_string(round) + " n=" + std::to_string(n));
    }
  }
}

/// The packed replay must reproduce run_prt's verdicts and op counts
/// over a whole classical universe too, plus the decoder, retention and
/// NPSF kinds, with and without early abort.
TEST(OpTranscript, PackedReplayMatchesLiveRunOnFaults) {
  const mem::Addr n = 64;
  std::vector<mem::Fault> universe = mem::classical_universe(n);
  universe.push_back(mem::Fault::af_multi_access(3, 40));
  universe.push_back(mem::Fault::retention({5, 0}, 1, 100));
  universe.push_back(mem::Fault::npsf_static({17, 0}, 0b0000, 1, 8));
  expect_prt_replay_matches_live(core::extended_scheme_bom(n), n, universe,
                                 "PRT-ext classical");
}

// --- March transcripts --------------------------------------------------

TEST(MarchTranscript, PackedReplayMatchesLiveRunOnStandardTests) {
  const std::vector<march::MarchTest> tests = {
      march::march_x(),  march::march_y(),  march::march_c_minus(),
      march::march_a(),  march::march_b(),  march::march_sr(),
      march::march_lr(), march::march_ss(), march::march_g()};
  for (const march::MarchTest& test : tests) {
    for (mem::Addr n : {17u, 64u, 256u}) {
      for (bool bg : {false, true}) {
        const core::OpTranscript t = march::make_march_transcript(test, n, bg);
        expect_replay_matches_live(
            n, t.total_ops(), mixed_batch(n),
            [&](mem::PackedFaultRam& ram, bool abort) {
              return march::run_march_packed(ram, t, {.early_abort = abort});
            },
            [&](mem::FaultyRam& ram, bool abort) {
              return march::run_march(test, ram, bg ? 1U : 0U,
                                      march::kDefaultDelayTicks,
                                      {.early_abort = abort})
                  .fail;
            },
            test.name + " n=" + std::to_string(n) + " bg=" + (bg ? "1" : "0"));
      }
    }
  }
}

/// March early abort: the packed per-lane analytic op accounting must
/// equal the abort-aware scalar run_march reference, fault by fault,
/// and verdicts must be unchanged.
TEST(MarchTranscript, AbortOpsParityScalarVsPacked) {
  const mem::Addr n = 48;
  const std::vector<march::MarchTest> tests = {
      march::march_c_minus(), march::march_y(), march::march_g()};
  const std::vector<mem::Fault> universe = mem::classical_universe(n);
  for (const march::MarchTest& test : tests) {
    const core::OpTranscript t =
        march::make_march_transcript(test, n, /*background=*/false);
    mem::FaultyRam scalar(n, 1);
    mem::PackedFaultRam packed(n);
    for (std::size_t base = 0; base < universe.size();
         base += mem::PackedFaultRam::kLanes) {
      packed.reset();
      const std::size_t lanes =
          std::min<std::size_t>(mem::PackedFaultRam::kLanes,
                                universe.size() - base);
      std::uint64_t scalar_detected = 0;
      std::uint64_t scalar_ops = 0;
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        const mem::Fault& f = universe[base + lane];
        packed.add_fault(f);
        scalar.reset(f);
        const march::MarchResult r =
            march::run_march(test, scalar, 0, 100'000, {.early_abort = true});
        scalar_detected |= std::uint64_t{r.fail} << lane;
        scalar_ops += r.ops;
      }
      const core::PackedVerdict v =
          march::run_march_packed(packed, t, {.early_abort = true});
      ASSERT_EQ(v.detected & packed.active_mask(), scalar_detected)
          << test.name << " batch at " << base;
      ASSERT_EQ(v.scalar_ops, scalar_ops) << test.name << " batch at " << base;
    }
  }
}

/// Abort-aware March campaigns: coverage and escapes unchanged, ops
/// shrink identically on the packed campaign and the serial live
/// reference.
TEST(MarchTranscript, AbortCampaignBitIdenticalScalarVsPacked) {
  const mem::Addr n = 96;
  const auto universe = mem::classical_universe(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto test = march::march_c_minus();
  const analysis::CampaignResult scalar_abort = analysis::run_campaign(
      universe, testref::live_march(test, /*early_abort=*/true), opt);
  const analysis::CampaignResult packed_abort = analysis::run_march_campaign(
      universe, test, opt,
      {.threads = 3, .early_abort = true});
  EXPECT_EQ(scalar_abort.overall, packed_abort.overall);
  EXPECT_EQ(scalar_abort.by_class, packed_abort.by_class);
  EXPECT_EQ(scalar_abort.escapes, packed_abort.escapes);
  EXPECT_EQ(scalar_abort.ops, packed_abort.ops);
  // The abort runs must also keep the non-abort verdicts (only ops
  // shrink).
  const analysis::CampaignResult full = analysis::run_march_campaign(
      universe, test, opt, {.threads = 2});
  EXPECT_EQ(full.overall, packed_abort.overall);
  EXPECT_EQ(full.escapes, packed_abort.escapes);
  EXPECT_LT(packed_abort.ops, full.ops);
}

}  // namespace
}  // namespace prt
