// Op-transcript compiler and replay (core/op_transcript.hpp,
// march::make_march_transcript).
//
// The load-bearing property: a compiled transcript replay must issue
// the *exact* operation stream of the live oracle-driven run — same
// ops, same addresses, same values, same pauses, in the same order —
// for any packable scheme and any March test, because the campaign
// engines swap the live loops for replays and promise bit-identical
// CampaignResults.  A RecordingRam captures both streams and the tests
// diff them op for op over randomized schemes, every standard March
// test, both backgrounds and n in {17, 64, 256}.  On top of the
// stream identity, the replays' verdicts and abort op accounting must
// match the live references on faulty memories (including the
// scalar-vs-packed March abort-ops parity).
#include "core/op_transcript.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/march_campaign.hpp"
#include "core/prt_engine.hpp"
#include "core/prt_packed.hpp"
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

/// One recorded memory operation (reads record the returned value,
/// writes the written value, pauses the tick count).
struct RecordedOp {
  char kind;  // 'r', 'w', 'p'
  mem::Addr addr;
  std::uint64_t value;
  bool operator==(const RecordedOp&) const = default;
};

/// A 1-bit-wide memory that records its whole operation stream — the
/// probe both the live run and the transcript replay are driven
/// against.
class RecordingRam final : public mem::Memory {
 public:
  explicit RecordingRam(mem::Addr n) : data_(n, 0) {}

  [[nodiscard]] mem::Addr size() const override {
    return static_cast<mem::Addr>(data_.size());
  }
  [[nodiscard]] unsigned width() const override { return 1; }
  [[nodiscard]] unsigned ports() const override { return 1; }

  mem::Word read(mem::Addr addr, unsigned) override {
    const mem::Word v = data_[addr];
    ops.push_back({'r', addr, v});
    return v;
  }
  void write(mem::Addr addr, mem::Word value, unsigned) override {
    data_[addr] = value & 1U;
    ops.push_back({'w', addr, value & 1U});
  }
  void advance_time(std::uint64_t ticks) override {
    ops.push_back({'p', 0, ticks});
  }
  [[nodiscard]] mem::AccessStats stats(unsigned) const override { return {}; }
  void reset_stats() override {}

  std::vector<RecordedOp> ops;

 private:
  std::vector<mem::Word> data_;
};

void expect_same_stream(const std::vector<RecordedOp>& live,
                        const std::vector<RecordedOp>& replay,
                        const std::string& label) {
  ASSERT_EQ(live.size(), replay.size()) << label;
  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ(live[i].kind, replay[i].kind) << label << " op " << i;
    ASSERT_EQ(live[i].addr, replay[i].addr) << label << " op " << i;
    ASSERT_EQ(live[i].value, replay[i].value) << label << " op " << i;
  }
}

/// Live oracle-driven run vs transcript replay on fault-free memories:
/// the streams must be identical op for op, and the analytic
/// read/write totals must match the live counters.
void expect_prt_transcript_identity(const core::PrtScheme& scheme,
                                    mem::Addr n, const std::string& label) {
  const core::PrtOracle oracle = core::make_prt_oracle(scheme, n);
  const core::OpTranscript t = core::make_op_transcript(scheme, oracle);
  RecordingRam live(n);
  const core::PrtVerdict lv =
      core::run_prt(live, scheme, oracle, {.record_iterations = false});
  RecordingRam replay(n);
  const core::PrtVerdict rv = core::run_prt_transcript(replay, t);
  expect_same_stream(live.ops, replay.ops, label);
  EXPECT_TRUE(lv.pass && lv.misr_pass) << label;
  EXPECT_TRUE(rv.pass && rv.misr_pass) << label;
  EXPECT_EQ(lv.reads, rv.reads) << label;
  EXPECT_EQ(lv.writes, rv.writes) << label;
  EXPECT_EQ(rv.ops(), t.total_ops()) << label;
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

TEST(OpTranscript, ReplayOpForOpIdenticalOnCanonicalSchemes) {
  for (mem::Addr n : {17u, 64u, 256u}) {
    expect_prt_transcript_identity(core::standard_scheme_bom(n), n,
                                   "PRT-3 n=" + std::to_string(n));
    expect_prt_transcript_identity(core::extended_scheme_bom(n), n,
                                   "PRT-ext n=" + std::to_string(n));
    expect_prt_transcript_identity(core::retention_scheme(n, 1, 5000), n,
                                   "retention n=" + std::to_string(n));
  }
}

TEST(OpTranscript, ReplayOpForOpIdenticalOnRandomPackableSchemes) {
  std::uint64_t x = 0x7EA5C217;
  for (int round = 0; round < 12; ++round) {
    const core::PrtScheme scheme = random_packable_scheme(x);
    ASSERT_TRUE(core::prt_scheme_packable(scheme));
    for (mem::Addr n : {17u, 64u, 256u}) {
      expect_prt_transcript_identity(
          scheme, n,
          "random round " + std::to_string(round) + " n=" + std::to_string(n));
    }
  }
}

/// The scalar replay must reproduce run_prt's verdict and op counts on
/// *faulty* memories too — including the kinds that stay on the scalar
/// campaign path — with and without early abort.
TEST(OpTranscript, ScalarReplayMatchesLiveRunOnFaults) {
  const mem::Addr n = 64;
  const core::PrtScheme scheme = core::extended_scheme_bom(n);
  const core::PrtOracle oracle = core::make_prt_oracle(scheme, n);
  const core::OpTranscript t = core::make_op_transcript(scheme, oracle);
  std::vector<mem::Fault> universe = mem::classical_universe(n);
  universe.push_back(mem::Fault::af_multi_access(3, 40));
  universe.push_back(mem::Fault::retention({5, 0}, 1, 100));
  universe.push_back(mem::Fault::npsf_static({17, 0}, 0b0000, 1, 8));
  mem::FaultyRam live(n, 1);
  mem::FaultyRam replay(n, 1);
  for (const mem::Fault& f : universe) {
    for (bool abort : {false, true}) {
      const core::PrtRunOptions opts{.early_abort = abort,
                                     .record_iterations = false};
      live.reset(f);
      const core::PrtVerdict lv = core::run_prt(live, scheme, oracle, opts);
      replay.reset(f);
      const core::PrtVerdict rv = core::run_prt_transcript(replay, t, opts);
      ASSERT_EQ(lv.detected(), rv.detected()) << f.describe();
      ASSERT_EQ(lv.reads, rv.reads) << f.describe() << " abort=" << abort;
      ASSERT_EQ(lv.writes, rv.writes) << f.describe() << " abort=" << abort;
      ASSERT_EQ(live.total_stats().total(), replay.total_stats().total())
          << f.describe() << " abort=" << abort;
    }
  }
}

// --- March transcripts --------------------------------------------------

TEST(MarchTranscript, ReplayOpForOpIdenticalOnStandardTests) {
  const std::vector<march::MarchTest> tests = {
      march::march_x(),  march::march_y(),  march::march_c_minus(),
      march::march_a(),  march::march_b(),  march::march_sr(),
      march::march_lr(), march::march_ss(), march::march_g()};
  for (const march::MarchTest& test : tests) {
    for (mem::Addr n : {17u, 64u, 256u}) {
      for (bool bg : {false, true}) {
        const core::OpTranscript t = march::make_march_transcript(test, n, bg);
        RecordingRam live(n);
        const march::MarchResult lv =
            march::run_march(test, live, bg ? 1U : 0U);
        RecordingRam replay(n);
        const march::MarchResult rv = march::run_march_transcript(replay, t);
        const std::string label =
            test.name + " n=" + std::to_string(n) + " bg=" + (bg ? "1" : "0");
        expect_same_stream(live.ops, replay.ops, label);
        EXPECT_EQ(lv.fail, rv.fail) << label;
        EXPECT_EQ(lv.ops, rv.ops) << label;
        EXPECT_EQ(rv.ops, t.total_ops()) << label;
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
        ASSERT_TRUE(mem::lane_compatible(f)) << f.describe();
        packed.add_fault(f);
        scalar.reset(f);
        const march::MarchResult r =
            march::run_march(test, scalar, 0, 100'000, {.early_abort = true});
        scalar_detected |= std::uint64_t{r.fail} << lane;
        scalar_ops += r.ops;
      }
      const march::MarchPackedVerdict v =
          march::run_march_packed(packed, t, {.early_abort = true});
      ASSERT_EQ(v.detected & packed.active_mask(), scalar_detected)
          << test.name << " batch at " << base;
      ASSERT_EQ(v.scalar_ops, scalar_ops) << test.name << " batch at " << base;
    }
  }
}

/// Abort-aware March campaigns: coverage and escapes unchanged, ops
/// shrink identically on the packed and scalar paths, thread counts
/// and packing permuted.
TEST(MarchTranscript, AbortCampaignBitIdenticalScalarVsPacked) {
  const mem::Addr n = 96;
  const auto universe = mem::classical_universe(n);
  analysis::CampaignOptions opt;
  opt.n = n;
  const auto test = march::march_c_minus();
  const analysis::CampaignResult scalar_abort = analysis::run_march_campaign(
      universe, test, opt,
      {.threads = 1, .packed = false, .early_abort = true});
  const analysis::CampaignResult packed_abort = analysis::run_march_campaign(
      universe, test, opt,
      {.threads = 3, .packed = true, .early_abort = true});
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
