// Tests for the oracle-backed, parallel campaign engine
// (analysis/campaign_engine): a reused engine must repeat itself,
// early-abort must change costs only, never verdicts (that every
// surface equals the serial reference is the differential fuzzer's to
// hold, tests/test_fuzz_campaign.cpp), campaigns sharing the
// process-wide pool must neither
// disturb each other nor report a lost pool task as a complete run,
// every campaign surface must cut the same fixed batches, and the
// executor under them keeps one wave per job and resolves a job
// stopped at any point with the exact merge of its completed batches.
#include "analysis/campaign_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign_service.hpp"
#include "analysis/campaign_shard.hpp"
#include "analysis/campaign_suite.hpp"
#include "analysis/march_campaign.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/fail_point.hpp"
#include "util/thread_pool.hpp"

namespace prt::analysis {
namespace {

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

TEST(CampaignEngine, ReusedEngineGivesIdenticalResultsAcrossRuns) {
  const mem::Addr n = 32;
  const auto universe = mem::classical_universe(n);
  CampaignOptions opt;
  opt.n = n;
  EngineOptions eng;
  eng.threads = 2;
  // One engine, several runs: the shared worker pool and the oracle
  // are reused, and every run must match the first bit-for-bit.
  const CampaignEngine engine(core::standard_scheme_bom(n), opt, eng);
  const CampaignResult first = engine.run(universe);
  for (int round = 0; round < 3; ++round) {
    expect_identical(first, engine.run(universe));
  }
}

TEST(CampaignEngine, EarlyAbortKeepsVerdictsAndCutsOps) {
  const mem::Addr n = 48;
  const auto universe = mem::classical_universe(n);
  const auto scheme = core::extended_scheme_bom(n);
  CampaignOptions opt;
  opt.n = n;
  EngineOptions full;
  EngineOptions abort_early;
  abort_early.early_abort = true;
  const CampaignResult complete =
      run_prt_campaign(universe, scheme, opt, full);
  const CampaignResult aborted =
      run_prt_campaign(universe, scheme, opt, abort_early);
  EXPECT_EQ(complete.overall, aborted.overall);
  EXPECT_EQ(complete.by_class, aborted.by_class);
  EXPECT_EQ(complete.escapes, aborted.escapes);
  // Most classical faults fail within the first iterations, so the
  // 18-iteration scheme skips real work.
  EXPECT_LT(aborted.ops, complete.ops);
}

TEST(CampaignEngine, OracleRunPrtMatchesPlainRunPrt) {
  const mem::Addr n = 32;
  const auto scheme = core::extended_scheme_bom(n);
  const auto oracle = core::make_prt_oracle(scheme, n);
  const auto fault = mem::Fault::cf_in({5, 0}, {6, 0});
  mem::FaultyRam plain(n, 1);
  plain.inject(fault);
  const auto expected = core::run_prt(plain, scheme);
  mem::FaultyRam reused(n, 1);
  reused.reset(fault);
  const auto actual = core::run_prt(reused, scheme, oracle);
  EXPECT_EQ(expected.pass, actual.pass);
  EXPECT_EQ(expected.misr_pass, actual.misr_pass);
  EXPECT_EQ(expected.reads, actual.reads);
  EXPECT_EQ(expected.writes, actual.writes);
  ASSERT_EQ(expected.iterations.size(), actual.iterations.size());
  for (std::size_t i = 0; i < expected.iterations.size(); ++i) {
    EXPECT_EQ(expected.iterations[i].pass, actual.iterations[i].pass);
    EXPECT_EQ(expected.iterations[i].fin, actual.iterations[i].fin);
    EXPECT_EQ(expected.iterations[i].fin_expected,
              actual.iterations[i].fin_expected);
    EXPECT_EQ(expected.iterations[i].verify_mismatches,
              actual.iterations[i].verify_mismatches);
  }
}

TEST(CampaignEngine, FaultyRamResetRestoresPristineState) {
  mem::FaultyRam ram(8, 1);
  ram.inject(mem::Fault::saf({3, 0}, 1));
  ram.write(2, 1, 0);
  (void)ram.read(3, 0);
  ram.advance_time(1000);
  ram.reset(mem::Fault::tf({1, 0}, true));
  EXPECT_EQ(ram.faults().size(), 1u);
  EXPECT_EQ(ram.faults()[0].kind, mem::FaultKind::kTfUp);
  EXPECT_EQ(ram.total_stats().total(), 0u);
  for (mem::Addr a = 0; a < 8; ++a) EXPECT_EQ(ram.peek(a), 0u);
}

TEST(CampaignEngine, ReusedRamMatchesFreshAcrossFaultFamilies) {
  // Regression guard for the reset(fault) fast-path gates
  // (has_address_fault_ / has_retention_fault_ / last_read_): running
  // an address fault, then a retention fault, then a SOF fault on the
  // *same* reused RAM must produce the verdicts of fresh-RAM runs —
  // no family may leave state that leaks into the next fault's run.
  const mem::Addr n = 32;
  const std::vector<core::PrtScheme> schemes = {
      core::extended_scheme_bom(n),
      core::retention_scheme(n, 1, /*pause_ticks=*/64)};
  const std::vector<mem::Fault> sequence = {
      mem::Fault::af_wrong_access(3, 5),
      mem::Fault::retention({4, 0}, /*decays_to=*/1, /*delay_ticks=*/8),
      mem::Fault::sof({6, 0}),
      mem::Fault::af_multi_access(2, 9),
      mem::Fault::retention({7, 0}, /*decays_to=*/0, /*delay_ticks=*/16),
      mem::Fault::sof({1, 0})};
  for (const auto& scheme : schemes) {
    const auto oracle = core::make_prt_oracle(scheme, n);
    mem::FaultyRam reused(n, 1);
    for (const mem::Fault& fault : sequence) {
      reused.reset(fault);
      const auto got = core::run_prt(reused, scheme, oracle);
      mem::FaultyRam fresh(n, 1);
      fresh.inject(fault);
      const auto want = core::run_prt(fresh, scheme, oracle);
      EXPECT_EQ(got.pass, want.pass) << fault.describe();
      EXPECT_EQ(got.misr_pass, want.misr_pass) << fault.describe();
      EXPECT_EQ(got.reads, want.reads) << fault.describe();
      EXPECT_EQ(got.writes, want.writes) << fault.describe();
    }
  }
}

TEST(CampaignEngine, MalformedUniverseThrowsOnEveryPath) {
  // inject()'s std::invalid_argument contract must survive the
  // parallel fan-out (worker exceptions are rethrown on the caller,
  // not left to std::terminate) on the PRT and the March replays, bit
  // and word loops alike, and hold on the scalar reference too.
  const mem::Addr n = 16;
  mem::Fault unknown = mem::Fault::saf({3, 0}, 1);
  unknown.kind = static_cast<mem::FaultKind>(200);  // past the last kind
  const auto scheme = core::standard_scheme_bom(n);
  for (const mem::Fault& bad :
       {mem::Fault::saf({n + 10, 0}, 1) /* out of range */, unknown}) {
    SCOPED_TRACE(static_cast<unsigned>(bad.kind));
    auto universe = mem::classical_universe(n);
    universe.push_back(bad);
    EXPECT_THROW((void)run_campaign(universe, prt_algorithm(scheme), {.n = n}),
                 std::invalid_argument);
    for (unsigned threads : {1u, 3u}) {
      EXPECT_THROW((void)run_prt_campaign(universe, scheme, {.n = n},
                                          {.threads = threads}),
                   std::invalid_argument);
      EXPECT_THROW((void)run_march_campaign(universe, march::march_c_minus(),
                                            {.n = n, .m = 4},
                                            {.threads = threads}),
                   std::invalid_argument);
    }
  }
}

// The driver picks its replay from the transcript: PRT iterations go
// to run_prt_packed, anything else to run_march_packed.  A March test
// with no elements compiles to a transcript with neither iterations
// nor March segments; it must take the March replay (no op, nothing
// detected) on every surface, as the reference does.  A driver keyed
// on the March segments would hand it to run_prt_packed, whose
// non-empty-iterations precondition a Debug build asserts.
TEST(CampaignEngine, EmptyMarchTestTakesTheMarchReplay) {
  const mem::Addr n = 16;
  march::MarchTest empty;
  empty.name = "empty";
  const CampaignOptions opt{.n = n};
  const auto universe = mem::classical_universe(n);
  const CampaignResult want =
      run_campaign(universe, march_algorithm(empty), opt);
  EXPECT_EQ(want.overall.detected, 0u);
  EXPECT_EQ(want.ops, 0u);
  EXPECT_EQ(want.escapes.size(), universe.size());

  EXPECT_EQ(CampaignEngine(empty, opt).run(universe), want);
  EXPECT_EQ(run_march_campaign(universe, empty, opt, {.early_abort = true}),
            want);
  const SuiteResult suite = run_march_suite(
      std::vector<CampaignOptions>{opt}, empty,
      [&](const CampaignOptions&, std::size_t) { return universe; });
  ASSERT_EQ(suite.configs.size(), 1u);
  EXPECT_EQ(suite.configs[0].result, want);
  CampaignService service;
  CampaignRequest req;
  req.march_test = empty;
  req.options = opt;
  req.universe = universe;
  const RequestOutcome out = service.submit(std::move(req)).wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.result, want);
}

// --- the shared pool ------------------------------------------------------

std::vector<mem::Fault> classical_for(const CampaignOptions& opt,
                                      std::size_t /*index*/) {
  return mem::classical_universe(opt.n);
}

CampaignSuite make_suite(const EngineOptions& eng) {
  return CampaignSuite(
      [](const CampaignOptions& opt) {
        return core::extended_scheme_bom(opt.n);
      },
      eng);
}

// Three callers loop an engine, a March campaign and a suite at once,
// all with the same worker count and therefore on the same pool
// threads.  Each fan-out waits only for its own batches, so every
// result must equal its serial reference.  The engine universe spans
// two 2048-fault batches on the 512-lane word plus a 100-fault tail on
// the 64-lane word.
TEST(SharedPool, ConcurrentCampaignsMatchSerialReferences) {
  const mem::Addr n = 512;
  auto universe = mem::classical_universe(n);
  ASSERT_GT(universe.size(), 2u * 2048u + 100u);
  universe.resize(2 * 2048 + 100);
  const CampaignOptions opt{.n = n};
  const std::vector<CampaignOptions> grid = {{.n = 300}, {.n = 48}};
  const auto scheme = core::extended_scheme_bom(n);
  const auto test = march::march_c_minus();

  EngineOptions serial;
  serial.threads = 1;
  const CampaignResult prt_ref =
      run_prt_campaign(universe, scheme, opt, serial);
  const CampaignResult march_ref = run_march_campaign(
      universe, test, opt, MarchEngineOptions{.threads = 1});
  const SuiteResult suite_ref = make_suite(serial).run(grid, classical_for);

  EngineOptions eng;
  eng.threads = 4;
  const CampaignEngine engine(scheme, opt, eng);
  const MarchCampaign march(test, opt, MarchEngineOptions{.threads = 4});
  const CampaignSuite suite = make_suite(eng);
  constexpr int kRounds = 4;
  std::atomic<int> mismatches{0};
  auto loop = [&](auto&& run_once) {
    return std::thread([&, run_once] {
      for (int round = 0; round < kRounds; ++round) {
        if (!run_once()) ++mismatches;
      }
    });
  };
  std::vector<std::thread> callers;
  callers.push_back(loop([&] { return engine.run(universe) == prt_ref; }));
  callers.push_back(loop([&] { return march.run(universe) == march_ref; }));
  callers.push_back(loop([&] {
    const SuiteResult got = suite.run(grid, classical_for);
    if (got.configs.size() != suite_ref.configs.size()) return false;
    for (std::size_t c = 0; c < got.configs.size(); ++c) {
      if (!(got.configs[c].result == suite_ref.configs[c].result)) {
        return false;
      }
    }
    return true;
  }));
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// A pool task lost before it ran (the fail point throws in its place)
// used to leave its batches missing while the run reported kComplete.
// Each fan-out now rethrows the loss; the next run is clean.
TEST(SharedPool, LostTaskRethrowsAndCleanRerunCompletes) {
  const mem::Addr n = 16;
  const auto universe = mem::classical_universe(n);
  const CampaignOptions opt{.n = n};
  EngineOptions eng;
  eng.threads = 2;
  const CampaignEngine engine(core::extended_scheme_bom(n), opt, eng);
  const MarchCampaign march(march::march_c_minus(), opt,
                            MarchEngineOptions{.threads = 2});
  const CampaignSuite suite = make_suite(eng);
  const std::vector<CampaignOptions> grid = {{.n = 16}, {.n = 24}};
  auto lose_one_task = [] {
    util::FailPoint::arm("thread_pool.task", {.fires = 1});
  };
  util::FailPointScope scope;

  lose_one_task();
  EXPECT_THROW((void)engine.run(universe, util::StopToken()),
               util::FailPointError);
  const CampaignOutcome prt = engine.run(universe, util::StopToken());
  EXPECT_EQ(prt.status, RunStatus::kComplete);
  EXPECT_EQ(prt.shards_done, prt.shards_total);
  EXPECT_EQ(prt.result.overall.total, universe.size());

  lose_one_task();
  EXPECT_THROW((void)march.run(universe, util::StopToken()),
               util::FailPointError);
  const CampaignOutcome mar = march.run(universe, util::StopToken());
  EXPECT_EQ(mar.status, RunStatus::kComplete);
  EXPECT_EQ(mar.shards_done, mar.shards_total);
  EXPECT_EQ(mar.result.overall.total, universe.size());

  lose_one_task();
  EXPECT_THROW((void)suite.run(grid, classical_for), util::FailPointError);
  const SuiteResult sui = suite.run(grid, classical_for);
  EXPECT_EQ(sui.status, RunStatus::kComplete);
  for (const SuiteConfigResult& entry : sui.configs) {
    EXPECT_EQ(entry.shards_done, entry.shards_total);
    EXPECT_EQ(entry.result.overall.total, entry.faults);
  }
}

// --- one partition --------------------------------------------------------

// Every campaign surface cuts a universe into the same fixed 2048-fault
// batches at every thread count, so shards_total == ceil(size / 2048),
// and every result equals the scalar run_campaign reference.  The
// universes tile the n = 16 classical universe; 4351 and 4352 leave a
// 255-fault tail on the 64-lane word and a 256-fault tail on the
// 512-lane word.
TEST(OnePartition, EverySurfaceCutsTheSameBatches) {
  const CampaignOptions opt{.n = 16};
  const std::vector<CampaignOptions> grid = {opt};
  const auto scheme = core::extended_scheme_bom(opt.n);
  const auto test = march::march_c_minus();
  const auto base = mem::classical_universe(opt.n);
  for (const std::size_t size :
       {0u, 1u, 255u, 256u, 2047u, 2048u, 2049u, 4351u, 4352u}) {
    SCOPED_TRACE("size=" + std::to_string(size));
    std::vector<mem::Fault> universe;
    for (std::size_t i = 0; i < size; ++i) {
      universe.push_back(base[i % base.size()]);
    }
    const std::size_t batches = (size + 2047) / 2048;
    const CampaignResult prt_ref =
        run_campaign(universe, prt_algorithm(scheme), opt);
    const CampaignResult march_ref =
        run_campaign(universe, march_algorithm(test), opt);
    for (const unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const CampaignOutcome prt =
          CampaignEngine(scheme, opt, {.threads = threads})
              .run(universe, util::StopToken());
      EXPECT_EQ(prt.shards_total, batches);
      expect_identical(prt.result, prt_ref);
      const CampaignOutcome mar =
          MarchCampaign(test, opt, {.threads = threads})
              .run(universe, util::StopToken());
      EXPECT_EQ(mar.shards_total, batches);
      expect_identical(mar.result, march_ref);
      const SuiteResult suite = make_suite({.threads = threads})
                                    .run(grid, [&](const CampaignOptions&,
                                                   std::size_t) {
                                      return universe;
                                    });
      EXPECT_EQ(suite.configs.at(0).shards_total, batches);
      expect_identical(suite.configs.at(0).result, prt_ref);
      CampaignService service({.threads = threads});
      CampaignRequest req;
      req.scheme = scheme;
      req.options = opt;
      req.universe = universe;
      const RequestOutcome out = service.submit(std::move(req)).wait();
      ASSERT_EQ(out.status, RequestStatus::kComplete);
      EXPECT_EQ(out.shards_total, batches);
      expect_identical(out.result, prt_ref);
    }
  }
}

// --- the executor -----------------------------------------------------------

/// A batch result unlike every other batch's, so a merge that drops,
/// repeats or reorders a batch shows.
CampaignResult synthetic_batch(std::size_t begin, std::size_t end) {
  CampaignResult out;
  const std::uint64_t total = end - begin;
  out.overall = {.detected = total - 1, .total = total};
  out.by_class[mem::FaultClass::kSaf] = out.overall;
  out.escapes.push_back(begin);
  out.ops = 3 * begin + 1;
  return out;
}

constexpr std::size_t kProbeBatches = 6;
constexpr std::size_t kProbeSize = kProbeBatches * detail::kSchedulerBatch - 100;

/// Shared with the probe job's tasks, which may outlive a failed wait.
struct Probe {
  util::StopSource cancel;
  std::array<std::atomic<bool>, kProbeBatches> completed{};
  std::atomic<bool> resolved{false};
  std::atomic<int> runs_after_resolve{0};
  std::promise<detail::JobOutcome> outcome;
};

/// How the stop reaches a probe job.
enum class StopBy { kPrepare, kCancel, kFailure };

/// Runs a job of kProbeBatches synthetic batches on `pool`.  Batch
/// `trigger` stops the job from inside its run: a cancel once it has
/// completed, or a throw with no retry left.  Either lands at the feed
/// point that batch's resolution opens; with `prepare` and trigger 0 it
/// lands inside launch, in the batch the preparing worker runs itself.
/// kPrepare cancels in the prepare step, before launch.  A batch that
/// starts after the stop abandons.  Returns the outcome, or nullopt
/// when the job did not resolve within 30 s.
std::optional<detail::JobOutcome> run_probe(util::ThreadPool& pool,
                                            bool prepare, StopBy by,
                                            std::size_t trigger,
                                            const std::shared_ptr<Probe>& p) {
  auto job = std::make_shared<detail::Job>(p->cancel.token());
  const detail::Job::RunBatch run =
      [p, by, trigger](std::size_t begin, std::size_t end, CampaignResult& out,
                       const util::StopToken& stop) {
        if (p->resolved) ++p->runs_after_resolve;
        if (stop.stop_requested()) return false;
        const std::size_t b = begin / detail::kSchedulerBatch;
        if (b == trigger && by == StopBy::kFailure) {
          throw std::runtime_error("probe failure");
        }
        out = synthetic_batch(begin, end);
        if (b == trigger) p->cancel.request_stop();
        p->completed[b] = true;
        return true;
      };
  if (prepare) {
    job->prepare = [p, by, run](detail::Job& j) {
      j.size = kProbeSize;
      j.run = run;
      if (by == StopBy::kPrepare) p->cancel.request_stop();
    };
  } else {
    job->size = kProbeSize;
    job->run = run;
  }
  job->on_done = [p](detail::JobOutcome done) {
    p->resolved = true;
    p->outcome.set_value(std::move(done));
  };
  std::future<detail::JobOutcome> done = p->outcome.get_future();
  detail::Job::start(pool, job);
  if (done.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    return std::nullopt;
  }
  return done.get();
}

// A cancel or a final failure at every feed point — in prepare, inside
// launch, and at each batch's resolution — hands out no further batch
// and resolves the job, once the batches in flight have, with the
// exact merge of the batches that completed.  On one worker the window
// is one batch, so exactly the batches before the trigger (and the
// trigger itself, on a cancel) complete.
TEST(CampaignJob, StopAtEveryFeedPointResolvesWithCompletedBatches) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    util::ThreadPool pool(workers);
    for (const bool prepare : {false, true}) {
      for (const StopBy by : {StopBy::kPrepare, StopBy::kCancel,
                              StopBy::kFailure}) {
        if (by == StopBy::kPrepare && !prepare) continue;
        const std::size_t triggers = by == StopBy::kPrepare ? 1 : kProbeBatches;
        for (std::size_t trigger = 0; trigger < triggers; ++trigger) {
          SCOPED_TRACE("workers=" + std::to_string(workers) +
                       " prepare=" + std::to_string(prepare) +
                       " by=" + std::to_string(static_cast<int>(by)) +
                       " trigger=" + std::to_string(trigger));
          const auto probe = std::make_shared<Probe>();
          const std::optional<detail::JobOutcome> out =
              run_probe(pool, prepare, by, trigger, probe);
          ASSERT_TRUE(out.has_value()) << "the job never resolved";
          std::vector<CampaignResult> completed;
          for (std::size_t b = 0; b < kProbeBatches; ++b) {
            if (!probe->completed[b]) continue;
            const std::size_t begin = b * detail::kSchedulerBatch;
            completed.push_back(synthetic_batch(
                begin, std::min(begin + detail::kSchedulerBatch, kProbeSize)));
          }
          EXPECT_EQ(out->run.result, merge_results(completed));
          EXPECT_EQ(out->run.shards_done, completed.size());
          EXPECT_EQ(out->run.shards_total, kProbeBatches);
          // A cancel that lands once every batch has completed (the
          // last batch's, or one that its wave had already finished)
          // leaves a complete run.
          EXPECT_EQ(out->run.status, completed.size() == kProbeBatches
                                         ? RunStatus::kComplete
                                         : RunStatus::kCancelled);
          EXPECT_EQ(out->exception != nullptr, by == StopBy::kFailure);
          if (by == StopBy::kFailure) {
            EXPECT_EQ(out->error, "shard " + std::to_string(trigger) +
                                      " failed after 1 attempt(s): probe "
                                      "failure");
          }
          EXPECT_EQ(probe->runs_after_resolve.load(), 0);
          if (workers == 1) {
            const std::size_t want = by == StopBy::kPrepare  ? 0
                                     : by == StopBy::kCancel ? trigger + 1
                                                             : trigger;
            EXPECT_EQ(completed.size(), want);
          }
        }
      }
    }
  }
}

// One wave per job: on a one-worker pool, a job started while another
// job's first batch runs gets its batch in before that job's second,
// because each resolved batch queues the next one behind whatever
// arrived meanwhile.
TEST(CampaignJob, NewJobWaitsBehindOneWaveOnly) {
  for (const bool prepare : {false, true}) {
    SCOPED_TRACE("prepare=" + std::to_string(prepare));
    util::ThreadPool pool(1);
    std::mutex mu;
    std::vector<std::string> order;
    std::promise<void> release;
    const std::shared_future<void> released = release.get_future().share();
    auto make_job = [&](const std::string& name, std::size_t size,
                        std::promise<void>& done) {
      auto job = std::make_shared<detail::Job>();
      detail::Job::RunBatch run = [&, name, released](
                                      std::size_t begin, std::size_t end,
                                      CampaignResult& out,
                                      const util::StopToken&) {
        const std::size_t b = begin / detail::kSchedulerBatch;
        if (name == "A" && b == 0) released.wait();
        {
          const std::lock_guard<std::mutex> lock(mu);
          order.push_back(name + std::to_string(b));
        }
        out = synthetic_batch(begin, end);
        return true;
      };
      if (prepare) {
        job->prepare = [size, run](detail::Job& j) {
          j.size = size;
          j.run = run;
        };
      } else {
        job->size = size;
        job->run = std::move(run);
      }
      job->on_done = [&done](detail::JobOutcome) { done.set_value(); };
      return job;
    };
    std::promise<void> a_done;
    std::promise<void> b_done;
    detail::Job::start(pool,
                       make_job("A", 4 * detail::kSchedulerBatch, a_done));
    detail::Job::start(pool, make_job("B", 10, b_done));
    release.set_value();
    a_done.get_future().wait();
    b_done.get_future().wait();
    const std::vector<std::string> want = {"A0", "B0", "A1", "A2", "A3"};
    EXPECT_EQ(order, want);
  }
}

// The worker that runs a job's prepare step runs its first batch: a
// one-batch job is one pool task, and each further batch one more.
TEST(CampaignJob, PreparingWorkerRunsTheFirstBatch) {
  util::FailPointScope scope;
  util::ThreadPool pool(1);
  for (const std::size_t batches : {1u, 3u}) {
    SCOPED_TRACE("batches=" + std::to_string(batches));
    // Armed past any hit it will see, only to count the pool's tasks.
    util::FailPoint::arm("thread_pool.task", {.skip = 1 << 30});
    auto job = std::make_shared<detail::Job>();
    job->prepare = [batches](detail::Job& j) {
      j.size = batches * detail::kSchedulerBatch;
      j.run = [](std::size_t begin, std::size_t end, CampaignResult& out,
                 const util::StopToken&) {
        out = synthetic_batch(begin, end);
        return true;
      };
    };
    std::promise<detail::JobOutcome> done;
    job->on_done = [&done](detail::JobOutcome o) { done.set_value(std::move(o)); };
    detail::Job::start(pool, job);
    const detail::JobOutcome out = done.get_future().get();
    EXPECT_EQ(out.run.status, RunStatus::kComplete);
    EXPECT_EQ(out.run.shards_done, batches);
    EXPECT_EQ(util::FailPoint::hits("thread_pool.task"), batches);
  }
}

}  // namespace
}  // namespace prt::analysis
