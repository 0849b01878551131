// Differential fuzzer over the campaign surfaces.  Each draw picks a
// workload (a random GF(2) or GF(16) PRT scheme, a canonical or
// retention scheme, or a library March test), a memory size n in
// [k + 1, 300], a word width, a make_universe mix with
// NPSF grids, retention and degenerate CFst faults, early abort on or
// off and 1, 2 or 4 threads.
// It runs the draw through CampaignEngine or MarchCampaign, and some
// draws also through a one-configuration CampaignSuite and a
// CampaignService request.  Every result must equal run_campaign over
// the live scalar reference (by_class, overall, escapes and ops).
// Service draws run the request a second time under a random fail
// point schedule (a point, skip, fire count and retry budget, half of
// them checkpointed): it must complete equal to the reference or fail
// with an error, and a failed checkpointed request must resume, every
// point disarmed, to the reference.  The seed and the draw count are
// fixed; a failure prints both (and the schedule), so the draw replays
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_service.hpp"
#include "analysis/campaign_suite.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "live_reference.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/fail_point.hpp"
#include "util/rng.hpp"

namespace prt::analysis {
namespace {

constexpr std::uint64_t kSeed = 0xF0221A7EULL;
constexpr int kDraws = 100;
/// Largest universe a draw runs: past one 2048-fault batch, so some
/// draws cut two batches and a tail.
constexpr std::size_t kMaxFaults = 2300;
/// Scalar reference ops a draw may cost (faults x ops per fault), which
/// keeps the serial reference inside the test's time budget.
constexpr std::uint64_t kOpsBudget = 3'000'000;
constexpr mem::Addr kMaxN = 300;

struct Draw {
  std::optional<core::PrtScheme> scheme;
  std::optional<march::MarchTest> test;
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

/// A random well-formed scheme over GF(2) (m = 1) or GF(16) (m = 4, z^4 +
/// z + 1): 1-4 iterations with k in [1, 4], non-zero g0 and gk, random
/// middle coefficients and seeds, a random trajectory, optional verify
/// pass and pause, and an optional MISR.
core::PrtScheme random_scheme(Xoshiro256& rng, unsigned m) {
  const gf::Elem size = gf::Elem{1} << m;
  auto any = [&] { return static_cast<gf::Elem>(pick(rng, size)); };
  auto nonzero = [&] { return static_cast<gf::Elem>(1 + pick(rng, size - 1)); };
  core::PrtScheme scheme;
  scheme.name = m == 1 ? "random GF(2)" : "random GF(16)";
  scheme.field_modulus = m == 1 ? 0b11 : 0b10011;
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

/// Ops one complete scalar run of the draw's workload issues.
std::uint64_t ops_per_fault(const Draw& d) {
  const std::uint64_t n = d.opt.n;
  if (d.test) {
    return d.test->total_ops(n) * march::standard_backgrounds(d.opt.m).size();
  }
  std::uint64_t ops = 0;
  for (const core::SchemeIteration& it : d.scheme->iterations) {
    const std::uint64_t k = it.g.size() - 1;
    ops += k + (n - k) * (k + 1) + 2 * k + (it.config.verify_pass ? n : 0);
  }
  return ops;
}

/// A make_universe mix (NPSF on a grid whose column count divides n),
/// plus retention faults with delays around the schemes' pauses and the
/// March Del time, and now and then a degenerate CFst trigger state
/// (inert on the reference and on its lane); shuffled, then cut or
/// tiled to `size` faults.
std::vector<mem::Fault> random_universe(Xoshiro256& rng, mem::Addr n,
                                        unsigned m, std::size_t size) {
  mem::UniverseOptions u;
  u.single_cell = pick(rng, 4) != 0;
  u.read_logic = coin(rng);
  u.coupling = coin(rng);
  u.bridges = coin(rng);
  u.address_decoder = coin(rng);
  u.intra_word = coin(rng);
  u.coupling_pair_limit = 4 + pick(rng, 60);
  u.seed = rng();
  if (coin(rng)) {
    std::vector<mem::Addr> cols;
    for (mem::Addr c = 2; c <= n; ++c) {
      if (n % c == 0) cols.push_back(c);
    }
    u.npsf = true;
    u.npsf_grid_cols = cols[pick(rng, cols.size())];
  }
  std::vector<mem::Fault> faults = mem::make_universe(n, m, u);
  constexpr std::uint64_t kDelays[] = {1,      40,      500,          5'000,
                                       99'999, 100'001, 1'000'000'000};
  const std::uint64_t retention = pick(rng, 40);
  for (std::uint64_t i = 0; i < retention; ++i) {
    const mem::BitRef victim{static_cast<mem::Addr>(pick(rng, n)),
                             static_cast<unsigned>(pick(rng, m))};
    faults.push_back(mem::Fault::retention(
        victim, static_cast<unsigned>(pick(rng, 2)), kDelays[pick(rng, 7)]));
  }
  if (pick(rng, 3) == 0) {
    faults.push_back(mem::Fault::cf_st({0, 0}, {1, 0}, /*when=*/2, 1));
  }
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
    const std::vector<march::MarchTest> tests = march::all_march_tests();
    d.test = tests[pick(rng, tests.size())];
    k = 1;
  }
  // n in [k + 1, kMaxN], the k + 1 edge a quarter of the time.
  d.opt.n = pick(rng, 4) == 0
                ? k + 1
                : k + 1 + static_cast<mem::Addr>(pick(rng, kMaxN - k));
  const mem::Addr n = d.opt.n;
  switch (kind) {
    case 2:
      d.scheme = d.opt.m == 1 ? core::standard_scheme_bom(n)
                              : core::standard_scheme_wom(n, d.opt.m);
      break;
    case 3:
      d.scheme = d.opt.m == 1 ? core::extended_scheme_bom(n)
                              : core::extended_scheme_wom(n, d.opt.m);
      break;
    case 4:
      d.scheme = core::retention_scheme(n, d.opt.m, 1 + pick(rng, 5000));
      break;
    default:
      break;
  }
  d.early_abort = coin(rng);
  constexpr unsigned kThreads[] = {1, 2, 4};
  d.threads = kThreads[pick(rng, 3)];
  d.suite = pick(rng, 3) == 0;
  d.service = pick(rng, 3) == 0;
  const std::uint64_t cap = std::clamp<std::uint64_t>(
      kOpsBudget / ops_per_fault(d), 1, kMaxFaults);
  d.universe = random_universe(rng, n, d.opt.m, 1 + pick(rng, cap));
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

void expect_matches(const CampaignResult& got, const CampaignResult& want,
                    const char* surface) {
  SCOPED_TRACE(surface);
  EXPECT_EQ(got.by_class, want.by_class);
  EXPECT_EQ(got.overall, want.overall);
  EXPECT_EQ(got.escapes, want.escapes);
  EXPECT_EQ(got.ops, want.ops);
}

TEST(FuzzCampaign, EverySurfaceMatchesTheLiveReference) {
  Xoshiro256 rng(kSeed);
  for (int draw = 0; draw < kDraws; ++draw) {
    const Draw d = make_draw(rng);
    std::ostringstream where;
    where << "seed=0x" << std::hex << kSeed << std::dec << " draw=" << draw
          << ": " << d.describe();
    SCOPED_TRACE(where.str());
    const CampaignResult want = run_campaign(
        d.universe,
        d.scheme ? testref::live_prt(*d.scheme, d.early_abort)
                 : testref::live_march(*d.test, d.early_abort),
        d.opt);
    const EngineOptions engine{.threads = d.threads,
                               .early_abort = d.early_abort};
    const MarchEngineOptions march_engine{.threads = d.threads,
                                          .early_abort = d.early_abort};
    if (d.scheme) {
      expect_matches(CampaignEngine(*d.scheme, d.opt, engine).run(d.universe),
                     want, "CampaignEngine");
    } else {
      expect_matches(
          MarchCampaign(*d.test, d.opt, march_engine).run(d.universe), want,
          "MarchCampaign");
    }
    if (d.suite) {
      const std::vector<CampaignOptions> grid = {d.opt};
      const auto universe = [&](const CampaignOptions&, std::size_t) {
        return d.universe;
      };
      const auto scheme = [&](const CampaignOptions&) { return *d.scheme; };
      const SuiteResult got =
          d.scheme ? CampaignSuite(scheme, engine).run(grid, universe)
                   : CampaignSuite(*d.test, march_engine).run(grid, universe);
      ASSERT_EQ(got.configs.size(), 1u);
      expect_matches(got.configs[0].result, want, "CampaignSuite");
    }
    if (d.service) {
      CampaignService service({.threads = d.threads});
      CampaignRequest req;
      req.scheme = d.scheme;
      req.march_test = d.test;
      req.options = d.opt;
      req.early_abort = d.early_abort;
      req.universe = d.universe;
      const RequestOutcome out = service.submit(req).wait();
      ASSERT_EQ(out.status, RequestStatus::kComplete) << out.error;
      expect_matches(out.result, want, "CampaignService");

      const Schedule schedule = make_schedule(draw);
      SCOPED_TRACE(schedule.describe());
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
      if (faulty.status == RequestStatus::kComplete) {
        expect_matches(faulty.result, want, "scheduled service");
      } else {
        ASSERT_EQ(faulty.status, RequestStatus::kFailed)
            << to_string(faulty.status) << ": " << faulty.error;
        EXPECT_FALSE(faulty.error.empty());
        if (schedule.checkpoint) {
          req.resume = true;
          const RequestOutcome resumed = service.submit(req).wait();
          ASSERT_EQ(resumed.status, RequestStatus::kComplete) << resumed.error;
          expect_matches(resumed.result, want, "resumed service");
        }
      }
      if (schedule.checkpoint) std::remove(req.checkpoint_path.c_str());
    }
  }
}

}  // namespace
}  // namespace prt::analysis
