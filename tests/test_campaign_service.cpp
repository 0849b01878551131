// Tests for the async campaign service (analysis/campaign_service):
// complete runs bit-identical to the synchronous engines, cooperative
// cancellation / deadlines with exact partial results, batch-granular
// checkpoint/resume whose resumed results are bit-identical to
// uninterrupted runs (interrupting at *every* cadence point, PRT,
// bit-oriented and word-oriented March, 1 and 4 threads), per-class
// priority
// admission with bounded queues and deadline-aware load shedding, the
// batch stall watchdog, bounded batch retry with request isolation
// (lost pool tasks included), input validation, and the oracle
// cache's poisoned-entry eviction plus budgeted LRU — all driven
// deterministically through util::FailPoint.  A shard is one fixed
// 2048-fault batch, so tests that need several shards tile a small
// universe instead of raising n.  (The checkpoint corruption/salvage
// matrix lives in tests/test_checkpoint_recovery.cpp.)
#include "analysis/campaign_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign_suite.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/fail_point.hpp"
#include "util/stop_token.hpp"

namespace prt::analysis {
namespace {

using util::FailPoint;
using util::FailPointScope;

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

std::string temp_checkpoint(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

CampaignRequest prt_request(mem::Addr n) {
  CampaignRequest req;
  req.scheme = core::extended_scheme_bom(n);
  req.options = {.n = n};
  req.universe = mem::classical_universe(n);
  return req;
}

CampaignRequest march_request(mem::Addr n) {
  CampaignRequest req;
  req.march_test = march::march_c_minus();
  req.options = {.n = n};
  req.universe = mem::classical_universe(n);
  return req;
}

/// March on 4-bit words: the word replay over four bit planes and
/// three data backgrounds.
CampaignRequest word_march_request(mem::Addr n) {
  CampaignRequest req = march_request(n);
  req.options.m = 4;
  return req;
}

/// Tiles the request's universe until it spans `batches` shards (the
/// last one a 100-fault tail).
CampaignRequest tiled(CampaignRequest req, std::size_t batches) {
  const std::vector<mem::Fault> base = std::move(req.universe);
  req.universe.clear();
  for (std::size_t i = 0; i < (batches - 1) * 2048 + 100; ++i) {
    req.universe.push_back(base[i % base.size()]);
  }
  return req;
}

// --- complete runs --------------------------------------------------

TEST(CampaignService, PrtCompleteBitIdenticalToEngine) {
  const mem::Addr n = 32;
  CampaignRequest req = prt_request(n);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.shards_done, out.shards_total);
  expect_identical(out.result, reference);
  EXPECT_EQ(service.stats().completed, 1u);
}

TEST(CampaignService, MarchCompleteBitIdenticalToCampaign) {
  const mem::Addr n = 32;
  CampaignRequest req = march_request(n);
  const CampaignResult reference =
      run_march_campaign(req.universe, *req.march_test, req.options);
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  expect_identical(out.result, reference);
}

TEST(CampaignService, ConcurrentRequestsAllComplete) {
  CampaignService service;
  std::vector<CampaignService::Ticket> tickets;
  std::vector<CampaignResult> references;
  for (const mem::Addr n : {24, 32, 40}) {
    CampaignRequest req = prt_request(n);
    references.push_back(run_prt_campaign(req.universe, *req.scheme,
                                          req.options));
    tickets.push_back(service.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const RequestOutcome& out = tickets[i].wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
    expect_identical(out.result, references[i]);
  }
  EXPECT_EQ(service.stats().completed, 3u);
}

TEST(CampaignService, EmptyUniverseCompletesEmpty) {
  CampaignRequest req = prt_request(24);
  req.universe.clear();
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.result.overall.total, 0u);
  EXPECT_EQ(out.shards_total, 0u);
}

// --- admission / validation -----------------------------------------

TEST(CampaignService, MalformedRequestsFailFast) {
  CampaignService service;
  {
    CampaignRequest req;  // neither workload set
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
  }
  {
    CampaignRequest req = prt_request(24);
    req.march_test = march::march_c_minus();  // both set
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
  }
  {
    CampaignRequest req = prt_request(24);
    req.resume = true;  // no checkpoint_path
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
  }
  {
    CampaignRequest req = prt_request(24);
    req.options.m = 33;  // invalid geometry
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_FALSE(out.error.empty());
  }
  {
    // A negative deadline fails at submit instead of reaching the
    // shedder, which would read an unset deadline_at.
    CampaignRequest req = prt_request(24);
    req.deadline = std::chrono::milliseconds(-5);
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find("deadline must be >= 0 (got -5000000 ns)"),
              std::string::npos)
        << out.error;
  }
  {
    CampaignRequest req = prt_request(24);
    req.checkpoint_every = 0;  // rejected, not coerced to 1
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find("checkpoint_every must be >= 1 (got 0)"),
              std::string::npos)
        << out.error;
  }
  EXPECT_EQ(service.stats().accepted, 0u);
  {
    // The scheme is checked when the request's driver is built, after
    // admission: a degree-0 MISR polynomial fails the request, naming
    // the polynomial, before any replay runs.
    CampaignRequest req = prt_request(64);
    req.scheme->misr_poly = 1;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find("MISR polynomial 1 has degree 0"),
              std::string::npos)
        << out.error;
  }
}

// Malformed options throw naming the value: max_running = 0 would
// admit requests into a queue nothing drains (and hang the
// destructor).
TEST(CampaignService, MalformedOptionsThrowNamingTheValue) {
  auto message = [](const ServiceOptions& options) {
    try {
      CampaignService service(options);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no throw");
  };
  EXPECT_NE(message({.max_running = 0})
                .find("max_running must be >= 1 (got 0)"),
            std::string::npos);
  EXPECT_NE(message({.max_retries = -1})
                .find("max_retries must be >= 0 (got -1)"),
            std::string::npos);
  EXPECT_NE(message({.stall_budget = std::chrono::nanoseconds(-7)})
                .find("stall_budget must be >= 0 (got -7 ns)"),
            std::string::npos);
}

TEST(CampaignService, DefaultTicketIsInert) {
  CampaignService::Ticket ticket;
  EXPECT_TRUE(ticket.done());
  ticket.cancel();  // no-op
  EXPECT_THROW((void)ticket.wait(), std::logic_error);
}

TEST(CampaignService, BackpressureRejectsPastClassQueueBound) {
  FailPointScope scope;
  // Every shard task sleeps, so the first request reliably occupies
  // the single running slot while the second is submitted.  A zero
  // queue bound means "no queueing": the second submission is revoked
  // the moment dispatch leaves it waiting.
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(20)});
  CampaignService service(
      {.threads = 1, .max_running = 1, .queue_bound_normal = 0});
  CampaignService::Ticket first = service.submit(prt_request(24));
  CampaignService::Ticket second = service.submit(prt_request(24));
  const RequestOutcome& rejected = second.wait();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_NE(rejected.error.find("normal"), std::string::npos);
  EXPECT_TRUE(second.done());
  first.cancel();
  (void)first.wait();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().accepted, 1u);
}

TEST(CampaignService, ZeroQueueBoundStillAdmitsIntoFreeSlot) {
  // The bound limits *waiting*, not admission: with the running window
  // free, a zero-bound class must still dispatch immediately.
  CampaignService service(
      {.threads = 1, .max_running = 1, .queue_bound_normal = 0});
  const RequestOutcome& out = service.submit(prt_request(24)).wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(CampaignService, QueueBoundsArePerClass) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1,
                           .max_running = 1,
                           .queue_bound_high = 1,
                           .queue_bound_normal = 0,
                           .queue_bound_batch = 1});
  // Four shards: occupies the slot for >= 4 injected delays.
  CampaignService::Ticket slot = service.submit(tiled(prt_request(24), 4));
  CampaignRequest b1 = prt_request(24);
  b1.priority = RequestPriority::kBatch;
  CampaignRequest b2 = prt_request(24);
  b2.priority = RequestPriority::kBatch;
  CampaignService::Ticket queued = service.submit(std::move(b1));
  const RequestOutcome& rejected = service.submit(std::move(b2)).wait();
  EXPECT_EQ(rejected.status, RequestStatus::kRejected);
  EXPECT_NE(rejected.error.find("batch"), std::string::npos);
  // The batch queue being full leaves the other classes untouched.
  CampaignRequest h = prt_request(24);
  h.priority = RequestPriority::kHigh;
  CampaignService::Ticket high = service.submit(std::move(h));
  EXPECT_EQ(service.stats().queued_high, 1u);
  EXPECT_EQ(service.stats().queued_batch, 1u);
  slot.cancel();
  high.cancel();
  queued.cancel();
  service.wait_all();
  EXPECT_EQ(service.stats().rejected, 1u);
  EXPECT_EQ(service.stats().accepted, 3u);
}

TEST(CampaignService, DispatchDrainsHighBeforeBatch) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1, .max_running = 1});
  CampaignService::Ticket slot = service.submit(tiled(prt_request(24), 2));
  // Batch is queued *first*; high must still dispatch first.
  CampaignRequest batch = tiled(prt_request(24), 4);
  batch.priority = RequestPriority::kBatch;
  CampaignRequest high = prt_request(24);
  high.priority = RequestPriority::kHigh;
  CampaignService::Ticket batch_ticket = service.submit(std::move(batch));
  CampaignService::Ticket high_ticket = service.submit(std::move(high));
  EXPECT_EQ(service.stats().queued_high, 1u);
  EXPECT_EQ(service.stats().queued_batch, 1u);
  slot.cancel();
  (void)slot.wait();
  // max_running = 1: the batch request cannot even dispatch until the
  // high request fully resolves, so high completing while batch is
  // still pending proves the drain order (batch's first shard alone
  // sleeps 60 ms once it does start).
  const RequestOutcome& high_out = high_ticket.wait();
  EXPECT_EQ(high_out.status, RequestStatus::kComplete);
  EXPECT_FALSE(batch_ticket.done());
  batch_ticket.cancel();
  (void)batch_ticket.wait();
}

TEST(CampaignService, DispatchIsFifoWithinClass) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1, .max_running = 1});
  CampaignService::Ticket slot = service.submit(tiled(prt_request(24), 2));
  CampaignService::Ticket first = service.submit(prt_request(24));
  CampaignService::Ticket second = service.submit(tiled(prt_request(24), 4));
  slot.cancel();
  (void)slot.wait();
  const RequestOutcome& out = first.wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_FALSE(second.done());
  second.cancel();
  (void)second.wait();
}

// --- load shedding ---------------------------------------------------

TEST(CampaignService, QueuedRequestPastDeadlineIsShedded) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1, .max_running = 1});
  // Two shards: runs out naturally, holding the slot >= 120 ms.
  CampaignService::Ticket slot = service.submit(tiled(prt_request(24), 2));
  CampaignRequest victim = prt_request(24);
  victim.deadline = std::chrono::milliseconds(30);
  CampaignService::Ticket ticket = service.submit(std::move(victim));
  (void)slot.wait();
  const RequestOutcome& out = ticket.wait();
  ASSERT_EQ(out.status, RequestStatus::kShedded);
  EXPECT_NE(out.error.find("expired"), std::string::npos);
  // Shed at dispatch: no partition was built, no shard ran.
  EXPECT_EQ(out.shards_total, 0u);
  EXPECT_EQ(out.result.overall.total, 0u);
  EXPECT_EQ(service.stats().shedded, 1u);
}

TEST(CampaignService, ShedderUsesLatencyEstimateAgainstDeadline) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(60)});
  CampaignService service({.threads = 1, .max_running = 1});
  // Warm the (prt, n=24) latency EWMA: two shards, >= 60 ms each.
  {
    const RequestOutcome& out =
        service.submit(tiled(prt_request(24), 2)).wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
  }
  // Blocker occupies the slot so the victim's shed decision happens at
  // dispatch, with ~60 ms of its 400 ms budget already spent.
  CampaignService::Ticket slot = service.submit(prt_request(24));
  // 8 shards on 1 worker = 8 waves x ~60 ms EWMA >= 480 ms estimated,
  // against < 400 ms remaining: shed, before any oracle work.
  CampaignRequest victim = tiled(prt_request(24), 8);
  victim.deadline = std::chrono::milliseconds(400);
  CampaignService::Ticket ticket = service.submit(std::move(victim));
  (void)slot.wait();
  const RequestOutcome& out = ticket.wait();
  ASSERT_EQ(out.status, RequestStatus::kShedded);
  EXPECT_NE(out.error.find("estimated cost"), std::string::npos);
  EXPECT_EQ(service.stats().shedded, 1u);
}

TEST(CampaignService, ShedderKeysLatencyEstimateOnWordWidth) {
  CampaignService service({.threads = 1, .max_running = 1});
  {
    // Warm the (March, n = 24, m = 4) estimate: one batch, >= 500 ms.
    FailPointScope scope;
    FailPoint::arm("campaign_service.shard",
                   {.action = FailPoint::Action::kDelay,
                    .fires = -1,
                    .delay = std::chrono::milliseconds(500)});
    ASSERT_EQ(service.submit(word_march_request(24)).wait().status,
              RequestStatus::kComplete);
  }
  // The bit-oriented test at the same n runs packed in about a
  // millisecond: a deadline shorter than the word-oriented estimate
  // but far longer than its own run must admit it.
  CampaignRequest bit = march_request(24);
  bit.deadline = std::chrono::milliseconds(200);
  const RequestOutcome& out = service.submit(std::move(bit)).wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete) << out.error;
  // The word-oriented estimate still holds for its own key.
  CampaignRequest word = word_march_request(24);
  word.deadline = std::chrono::milliseconds(200);
  const RequestOutcome& shed = service.submit(std::move(word)).wait();
  EXPECT_EQ(shed.status, RequestStatus::kShedded);
  EXPECT_NE(shed.error.find("estimated cost"), std::string::npos);
  EXPECT_EQ(service.stats().shedded, 1u);
}

TEST(CampaignService, ShedderAdmitsWhenDeadlineCoversEstimate) {
  // Same shape without the injected latency: the estimate comfortably
  // fits the deadline, so the request is admitted and completes.
  CampaignService service({.threads = 1, .max_running = 1});
  ASSERT_EQ(service.submit(tiled(prt_request(24), 2)).wait().status,
            RequestStatus::kComplete);
  CampaignRequest req = tiled(prt_request(24), 2);
  req.deadline = std::chrono::seconds(60);
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  EXPECT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(service.stats().shedded, 0u);
}

// --- shard stall watchdog --------------------------------------------

TEST(CampaignService, WatchdogCancelsStalledShardAndRetries) {
  FailPointScope scope;
  // One shard attempt wedges for 600 ms; the watchdog trips its
  // per-attempt token at 150 ms (kStalled) and the bounded retry
  // completes the campaign bit-identically.  A concurrent healthy
  // request on the same pool is unaffected.  (Budgets are generous:
  // a *healthy* shard here computes for a few ms, so only the wedged
  // attempt can plausibly cross 150 ms even on a loaded 1-core box.)
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = 1,
                  .delay = std::chrono::milliseconds(600)});
  CampaignRequest req = prt_request(32);
  CampaignRequest other = march_request(24);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  const CampaignResult other_reference =
      run_march_campaign(other.universe, *other.march_test, other.options);
  CampaignService service({.threads = 2,
                           .max_retries = 1,
                           .stall_budget = std::chrono::milliseconds(150)});
  CampaignService::Ticket first = service.submit(std::move(req));
  CampaignService::Ticket second = service.submit(std::move(other));
  const RequestOutcome& out = first.wait();
  const RequestOutcome& other_out = second.wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  ASSERT_EQ(other_out.status, RequestStatus::kComplete);
  expect_identical(out.result, reference);
  expect_identical(other_out.result, other_reference);
  EXPECT_GE(service.stats().shard_stalls, 1u);
  EXPECT_GE(service.stats().shard_retries, 1u);
}

TEST(CampaignService, StallRetryExhaustionFailsRequest) {
  FailPointScope scope;
  // Every attempt wedges: retries exhaust and the request fails with
  // the stall named in the error, rather than hanging forever.
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(400)});
  CampaignService service({.threads = 1,
                           .max_retries = 0,
                           .stall_budget = std::chrono::milliseconds(100)});
  const RequestOutcome& out = service.submit(prt_request(24)).wait();
  ASSERT_EQ(out.status, RequestStatus::kFailed);
  EXPECT_NE(out.error.find("stalled"), std::string::npos);
  EXPECT_GE(service.stats().shard_stalls, 1u);
  // The service itself is healthy afterwards.
  FailPoint::disarm_all();
  EXPECT_EQ(service.submit(prt_request(24)).wait().status,
            RequestStatus::kComplete);
}

// --- cancellation / deadlines ---------------------------------------

TEST(CampaignService, CancellationYieldsIsolatedPartialResult) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(30)});
  CampaignService service({.threads = 1});
  CampaignRequest slow = tiled(prt_request(32), 8);
  const std::size_t universe_size = slow.universe.size();
  CampaignService::Ticket ticket = service.submit(std::move(slow));
  ticket.cancel();
  const RequestOutcome& out = ticket.wait();
  ASSERT_EQ(out.status, RequestStatus::kPartialCancelled);
  EXPECT_LT(out.shards_done, out.shards_total);
  // The partial result is an exact tally over the completed shards
  // only — never a torn count over a half-run shard.
  EXPECT_LE(out.result.overall.total, universe_size);
  EXPECT_TRUE(std::is_sorted(out.result.escapes.begin(),
                             out.result.escapes.end()));
  // A second request on the same service is unaffected.
  FailPoint::disarm_all();
  CampaignRequest healthy = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(healthy.universe, *healthy.scheme, healthy.options);
  const RequestOutcome& ok = service.submit(std::move(healthy)).wait();
  ASSERT_EQ(ok.status, RequestStatus::kComplete);
  expect_identical(ok.result, reference);
}

TEST(CampaignService, DeadlineYieldsPartialDeadline) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard",
                 {.action = FailPoint::Action::kDelay,
                  .fires = -1,
                  .delay = std::chrono::milliseconds(30)});
  CampaignService service({.threads = 1});
  CampaignRequest req = tiled(prt_request(32), 8);
  req.deadline = std::chrono::milliseconds(1);
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kPartialDeadline);
  EXPECT_LT(out.shards_done, out.shards_total);
}

// --- worker failure / retry -----------------------------------------

TEST(CampaignService, ShardFailureRetriesToCompletion) {
  FailPointScope scope;
  // The first two shard-task attempts crash; retries finish the job.
  FailPoint::arm("campaign_service.shard", {.fires = 2});
  CampaignRequest req = prt_request(32);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  CampaignService service({.max_retries = 2});
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  expect_identical(out.result, reference);
  EXPECT_EQ(service.stats().shard_retries, 2u);
}

TEST(CampaignService, RetryExhaustionFailsRequestButNotService) {
  FailPointScope scope;
  FailPoint::arm("campaign_service.shard", {.fires = -1});
  CampaignService service({.threads = 2, .max_retries = 1});
  const RequestOutcome& failed = service.submit(prt_request(24)).wait();
  ASSERT_EQ(failed.status, RequestStatus::kFailed);
  EXPECT_NE(failed.error.find("shard"), std::string::npos);
  EXPECT_GE(service.stats().shard_retries, 1u);
  // The worker that "crashed" was isolated: the pool and service keep
  // serving subsequent requests.
  FailPoint::disarm_all();
  CampaignRequest healthy = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(healthy.universe, *healthy.scheme, healthy.options);
  const RequestOutcome& ok = service.submit(std::move(healthy)).wait();
  ASSERT_EQ(ok.status, RequestStatus::kComplete);
  expect_identical(ok.result, reference);
}

// A pool task lost before it ran must not leave its request running
// forever (done() false, stats().running stuck at 1, wait() and the
// destructor hung): a lost setup task fails the request, a lost batch
// task is a failed attempt — retried, then kFailed naming the fail
// point — and the service keeps serving.
TEST(CampaignService, LostSetupTaskFailsRequestThenRecovers) {
  FailPointScope scope;
  CampaignService service({.threads = 1});
  FailPoint::arm("thread_pool.task", {.skip = 0});
  const RequestOutcome& lost = service.submit(prt_request(24)).wait();
  ASSERT_EQ(lost.status, RequestStatus::kFailed);
  EXPECT_NE(lost.error.find("thread_pool.task"), std::string::npos)
      << lost.error;
  EXPECT_EQ(service.stats().running, 0u);
  FailPoint::disarm_all();
  EXPECT_EQ(service.submit(prt_request(24)).wait().status,
            RequestStatus::kComplete);
}

TEST(CampaignService, LostBatchTaskRetriesThenFails) {
  FailPointScope scope;
  CampaignService service({.threads = 1});
  CampaignRequest req = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  // One lost batch task: the retry completes the request.
  FailPoint::arm("thread_pool.task", {.skip = 1});
  const RequestOutcome& retried = service.submit(std::move(req)).wait();
  ASSERT_EQ(retried.status, RequestStatus::kComplete);
  expect_identical(retried.result, reference);
  EXPECT_EQ(service.stats().shard_retries, 1u);
  // Every batch task lost: max_retries = 2 bounds the attempts.
  FailPoint::arm("thread_pool.task", {.skip = 1, .fires = -1});
  const RequestOutcome& lost = service.submit(prt_request(24)).wait();
  ASSERT_EQ(lost.status, RequestStatus::kFailed);
  EXPECT_NE(lost.error.find("after 3 attempt(s): fail point "
                            "'thread_pool.task' fired"),
            std::string::npos)
      << lost.error;
  EXPECT_EQ(service.stats().running, 0u);
  FailPoint::disarm_all();
  EXPECT_EQ(service.submit(prt_request(24)).wait().status,
            RequestStatus::kComplete);
}

// --- oracle cache poisoning (satellite) -----------------------------

TEST(OracleCachePoison, FailedBuildIsEvictedAndRebuilt) {
  FailPointScope scope;
  OracleCache cache;
  const core::PrtScheme scheme = core::extended_scheme_bom(32);
  FailPoint::arm("oracle_cache.build", {.fires = 1});
  EXPECT_THROW((void)cache.prt(scheme, 32), util::FailPointError);
  // The failed build must not leave a poisoned slot behind: the same
  // key rebuilds from scratch and succeeds.
  const auto entry = cache.prt(scheme, 32);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(cache.builds(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(OracleCachePoison, ConcurrentWaitersRecoverAfterFailedBuild) {
  FailPointScope scope;
  OracleCache cache;
  const core::PrtScheme scheme = core::extended_scheme_bom(32);
  // Exactly one build fails; every concurrent requester must end up
  // with a real entry (waiters retry the lookup once themselves).
  FailPoint::arm("oracle_cache.build", {.fires = 1});
  std::vector<std::thread> threads;
  std::atomic<int> succeeded{0};
  std::atomic<int> threw{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      try {
        if (cache.prt(scheme, 32) != nullptr) ++succeeded;
      } catch (const util::FailPointError&) {
        ++threw;
      }
    });
  }
  for (auto& t : threads) t.join();
  // The injected failure surfaces at most on the thread that ran the
  // failing build; everyone else recovers via the rebuilt entry.
  EXPECT_LE(threw.load(), 1);
  EXPECT_GE(succeeded.load(), 7);
  EXPECT_EQ(cache.size(), 1u);
}

// --- oracle cache budget / LRU (tentpole) ---------------------------

TEST(OracleCacheEviction, HitMissCountersTrack) {
  OracleCache cache;
  const core::PrtScheme scheme = core::extended_scheme_bom(24);
  (void)cache.prt(scheme, 24);
  (void)cache.prt(scheme, 24);
  const OracleCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_GT(s.bytes, 0u);
}

TEST(OracleCacheEviction, BudgetEvictsLeastRecentlyUsed) {
  // Entry costs are deterministic per (scheme, n), so measure the
  // budget we need — two specific entries — in a throwaway cache.
  const core::PrtScheme s24 = core::extended_scheme_bom(24);
  const core::PrtScheme s32 = core::extended_scheme_bom(32);
  const core::PrtScheme s40 = core::extended_scheme_bom(40);
  std::size_t budget = 0;
  {
    OracleCache probe;
    (void)probe.prt(s24, 24);
    (void)probe.prt(s40, 40);
    budget = probe.stats().bytes;
  }
  OracleCache cache;
  cache.set_budget_bytes(budget);
  (void)cache.prt(s24, 24);
  (void)cache.prt(s32, 32);
  (void)cache.prt(s24, 24);  // touch 24: 32 is now least recent
  (void)cache.prt(s40, 40);  // over budget -> evicts exactly 32
  const OracleCache::Stats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_LE(s.bytes, budget);
  // The touched entry survived; the evicted one rebuilds on demand.
  const std::size_t builds = cache.builds();
  (void)cache.prt(s24, 24);
  EXPECT_EQ(cache.builds(), builds);
  (void)cache.prt(s32, 32);
  EXPECT_EQ(cache.builds(), builds + 1);
}

TEST(OracleCacheEviction, TinyBudgetStillServesLookups) {
  // A budget below any single entry degenerates to "build, hand out,
  // evict immediately" — every lookup still succeeds, March included.
  OracleCache cache;
  cache.set_budget_bytes(1);
  const core::PrtScheme scheme = core::extended_scheme_bom(24);
  ASSERT_NE(cache.prt(scheme, 24), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  ASSERT_NE(cache.prt(scheme, 24), nullptr);  // rebuilt, not poisoned
  EXPECT_EQ(cache.builds(), 2u);
  ASSERT_NE(cache.march(march::march_c_minus(), 24, true, 0), nullptr);
  const OracleCache::Stats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_GE(s.evictions, 3u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(OracleCacheEviction, ShrinkingBudgetEvictsImmediately) {
  OracleCache cache;
  const core::PrtScheme scheme = core::extended_scheme_bom(24);
  (void)cache.prt(scheme, 24);
  ASSERT_EQ(cache.stats().entries, 1u);
  cache.set_budget_bytes(1);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Back to unbounded: entries stick again.
  cache.set_budget_bytes(0);
  (void)cache.prt(scheme, 24);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(CampaignService, StatsSurfaceOracleCacheCounters) {
  OracleCache::global().clear();
  CampaignService service;
  const RequestOutcome& out = service.submit(prt_request(24)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  const CampaignService::Stats s = service.stats();
  EXPECT_GE(s.cache_misses, 1u);
  EXPECT_GE(s.cache_entries, 1u);
  EXPECT_GT(s.cache_bytes, 0u);
}

TEST(CampaignService, OracleBuildFailureFailsRequestThenRecovers) {
  FailPointScope scope;
  OracleCache::global().clear();
  FailPoint::arm("oracle_cache.build", {.fires = 1});
  CampaignService service;
  CampaignRequest req = prt_request(48);
  CampaignRequest again = prt_request(48);
  const RequestOutcome& failed = service.submit(std::move(req)).wait();
  EXPECT_EQ(failed.status, RequestStatus::kFailed);
  // Eviction means the identical request now rebuilds and completes.
  const RequestOutcome& ok = service.submit(std::move(again)).wait();
  EXPECT_EQ(ok.status, RequestStatus::kComplete);
}

// --- checkpoint / resume --------------------------------------------

/// Interrupt at every cadence point: run once with the k-th shard
/// attempt (and everything after it) crashing, then resume from the
/// checkpoint and require the merged result to be bit-identical to the
/// uninterrupted reference, for PRT, bit-oriented and word-oriented
/// March.
void run_resume_matrix(const std::string& name,
                       CampaignRequest (*request)(mem::Addr),
                       unsigned threads) {
  SCOPED_TRACE(name + " threads=" + std::to_string(threads));
  const mem::Addr n = 24;
  const std::size_t kShards = 3;
  auto make_request = [&] { return tiled(request(n), kShards); };
  CampaignRequest ref_req = make_request();
  const CampaignResult reference =
      ref_req.scheme ? run_prt_campaign(ref_req.universe, *ref_req.scheme,
                                        ref_req.options)
                     : run_march_campaign(ref_req.universe,
                                          *ref_req.march_test, ref_req.options);

  for (std::size_t k = 0; k < kShards; ++k) {
    SCOPED_TRACE("interrupt after " + std::to_string(k) + " shards");
    FailPointScope scope;
    const std::string path =
        temp_checkpoint("svc_resume_" + name + std::to_string(threads) + "_" +
                        std::to_string(k) + ".ckpt");
    CampaignService service({.threads = threads, .max_retries = 0});
    {
      // Let k shard tasks complete, crash every later attempt.
      FailPoint::arm("campaign_service.shard",
                     {.skip = static_cast<int>(k), .fires = -1});
      CampaignRequest req = make_request();
      req.checkpoint_path = path;
      req.checkpoint_every = 1;
      const RequestOutcome& out = service.submit(std::move(req)).wait();
      ASSERT_EQ(out.status, RequestStatus::kFailed);
      ASSERT_LT(out.shards_done, kShards);
    }
    FailPoint::disarm_all();
    {
      CampaignRequest req = make_request();
      req.checkpoint_path = path;
      req.resume = true;
      const RequestOutcome& out = service.submit(std::move(req)).wait();
      ASSERT_EQ(out.status, RequestStatus::kComplete);
      EXPECT_EQ(out.shards_total, kShards);
      expect_identical(out.result, reference);
    }
    std::remove(path.c_str());
  }
}

TEST(CampaignServiceResume, PrtPackedOneThread) {
  run_resume_matrix("prt", prt_request, 1);
}
TEST(CampaignServiceResume, PrtPackedFourThreads) {
  run_resume_matrix("prt", prt_request, 4);
}
TEST(CampaignServiceResume, MarchPackedOneThread) {
  run_resume_matrix("march", march_request, 1);
}
TEST(CampaignServiceResume, MarchPackedFourThreads) {
  run_resume_matrix("march", march_request, 4);
}
TEST(CampaignServiceResume, WordMarchPackedOneThread) {
  run_resume_matrix("word_march", word_march_request, 1);
}
TEST(CampaignServiceResume, WordMarchPackedFourThreads) {
  run_resume_matrix("word_march", word_march_request, 4);
}

// Checkpoint records are fixed batches, so a checkpoint resumes
// bit-identically at any worker count: interrupted at 1 thread and
// resumed at 4, and the other way round.
TEST(CampaignServiceResume, ResumeAcrossThreadCountsIsBitIdentical) {
  FailPointScope scope;
  const std::string path = temp_checkpoint("svc_resume_cross_threads.ckpt");
  const CampaignRequest request = tiled(prt_request(24), 6);
  const CampaignResult reference =
      run_prt_campaign(request.universe, *request.scheme, request.options);
  {
    FailPoint::arm("campaign_service.shard", {.skip = 3, .fires = -1});
    CampaignService one({.threads = 1, .max_retries = 0});
    CampaignRequest req = request;
    req.checkpoint_path = path;
    const RequestOutcome& out = one.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    ASSERT_EQ(out.shards_done, 3u);
  }
  FailPoint::disarm_all();
  {
    CampaignService four({.threads = 4});
    CampaignRequest req = request;
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = four.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
    EXPECT_EQ(out.shards_total, 6u);
    EXPECT_EQ(out.shards_resumed, 3u);
    expect_identical(out.result, reference);
  }
  {
    // At 4 threads the fourth attempt wedges past the stall budget and
    // fails the request once the healthy shards have completed.
    FailPoint::arm("campaign_service.shard",
                   {.action = FailPoint::Action::kDelay,
                    .skip = 3,
                    .fires = 1,
                    .delay = std::chrono::milliseconds(400)});
    CampaignService four({.threads = 4,
                          .max_retries = 0,
                          .stall_budget = std::chrono::milliseconds(150)});
    CampaignRequest req = request;
    req.checkpoint_path = path;
    const RequestOutcome& out = four.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    ASSERT_GT(out.shards_done, 0u);
  }
  FailPoint::disarm_all();
  {
    CampaignService one({.threads = 1});
    CampaignRequest req = request;
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = one.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
    EXPECT_GT(out.shards_resumed, 0u);
    expect_identical(out.result, reference);
  }
  std::remove(path.c_str());
}

TEST(CampaignServiceResume, CancelThenResumeIsBitIdentical) {
  FailPointScope scope;
  const std::string path = temp_checkpoint("svc_cancel_resume.ckpt");
  const CampaignRequest request = tiled(prt_request(32), 8);
  const CampaignResult reference =
      run_prt_campaign(request.universe, *request.scheme, request.options);
  {
    FailPoint::arm("campaign_service.shard",
                   {.action = FailPoint::Action::kDelay,
                    .fires = -1,
                    .delay = std::chrono::milliseconds(15)});
    CampaignService service({.threads = 1});
    CampaignRequest req = request;
    req.checkpoint_path = path;
    CampaignService::Ticket ticket = service.submit(std::move(req));
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    ticket.cancel();
    const RequestOutcome& out = ticket.wait();
    ASSERT_EQ(out.status, RequestStatus::kPartialCancelled);
  }
  FailPoint::disarm_all();
  {
    CampaignService service({.threads = 4});
    CampaignRequest req = request;
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kComplete);
    expect_identical(out.result, reference);
  }
  std::remove(path.c_str());
}

TEST(CampaignServiceResume, CompletedRunRemovesCheckpoint) {
  const std::string path = temp_checkpoint("svc_complete_removes.ckpt");
  CampaignService service;
  CampaignRequest req = prt_request(24);
  req.checkpoint_path = path;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  std::ifstream in(path);
  EXPECT_FALSE(in.good()) << "checkpoint should be removed on completion";
}

TEST(CampaignServiceResume, FingerprintMismatchFailsInsteadOfMerging) {
  FailPointScope scope;
  const std::string path = temp_checkpoint("svc_fp_mismatch.ckpt");
  {
    FailPoint::arm("campaign_service.shard", {.skip = 2, .fires = -1});
    CampaignService service({.threads = 1, .max_retries = 0});
    CampaignRequest req = tiled(prt_request(24), 3);
    req.checkpoint_path = path;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    ASSERT_GT(out.shards_done, 0u);
  }
  FailPoint::disarm_all();
  CampaignService service;
  {
    // Different universe (one fault dropped) — must be rejected.
    CampaignRequest req = tiled(prt_request(24), 3);
    req.universe.pop_back();
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find("fingerprint"), std::string::npos);
  }
  {
    // Different run options (early_abort changes op accounting).
    CampaignRequest req = tiled(prt_request(24), 3);
    req.early_abort = true;
    req.checkpoint_path = path;
    req.resume = true;
    const RequestOutcome& out = service.submit(std::move(req)).wait();
    ASSERT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find("fingerprint"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(CampaignServiceResume, MalformedCheckpointSalvagesToFreshRun) {
  // A file that is not a checkpoint at all carries nothing salvageable
  // before the records: the run starts fresh (salvage counted) instead
  // of failing — crash-safety means corruption costs recomputation,
  // never the campaign.  The full corruption matrix (torn tails,
  // flipped bytes, partial final writes) lives in
  // tests/test_checkpoint_recovery.cpp.
  const std::string path = temp_checkpoint("svc_malformed.ckpt");
  {
    std::ofstream file(path);
    file << "not a checkpoint\n";
  }
  CampaignRequest req = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  CampaignService service;
  req.checkpoint_path = path;
  req.resume = true;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.shards_resumed, 0u);
  expect_identical(out.result, reference);
  EXPECT_EQ(service.stats().checkpoint_salvaged, 1u);
  std::remove(path.c_str());
}

TEST(CampaignServiceResume, MissingCheckpointMeansFreshRun) {
  const std::string path = temp_checkpoint("svc_missing.ckpt");
  CampaignRequest req = prt_request(24);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  req.checkpoint_path = path;
  req.resume = true;
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  EXPECT_EQ(out.shards_resumed, 0u);
  expect_identical(out.result, reference);
}

TEST(CampaignServiceResume, CheckpointWriteFailureIsNonFatal) {
  FailPointScope scope;
  const std::string path = temp_checkpoint("svc_ckpt_fail.ckpt");
  FailPoint::arm("campaign_service.checkpoint", {.fires = -1});
  CampaignRequest req = tiled(prt_request(32), 3);
  const CampaignResult reference =
      run_prt_campaign(req.universe, *req.scheme, req.options);
  req.checkpoint_path = path;
  CampaignService service;
  const RequestOutcome& out = service.submit(std::move(req)).wait();
  ASSERT_EQ(out.status, RequestStatus::kComplete);
  expect_identical(out.result, reference);
  EXPECT_GE(service.stats().checkpoint_failures, 1u);
}

// --- engine / suite cancellation (threaded StopToken) ---------------

TEST(StoppableRuns, EngineWithIdleTokenMatchesPlainRun) {
  const auto universe = mem::classical_universe(32);
  const CampaignOptions opt{.n = 32};
  CampaignEngine engine(core::extended_scheme_bom(32), opt);
  const CampaignResult plain = engine.run(universe);
  util::StopSource source;
  const CampaignOutcome outcome = engine.run(universe, source.token());
  ASSERT_EQ(outcome.status, RunStatus::kComplete);
  EXPECT_EQ(outcome.shards_done, outcome.shards_total);
  expect_identical(outcome.result, plain);
}

TEST(StoppableRuns, EnginePreCancelledTokenRunsNothing) {
  const auto universe = mem::classical_universe(32);
  CampaignEngine engine(core::extended_scheme_bom(32), {.n = 32});
  util::StopSource source;
  source.request_stop();
  const CampaignOutcome outcome = engine.run(universe, source.token());
  EXPECT_EQ(outcome.status, RunStatus::kCancelled);
  EXPECT_EQ(outcome.shards_done, 0u);
  EXPECT_EQ(outcome.result.overall.total, 0u);
}

TEST(StoppableRuns, MarchExpiredDeadlineReportsDeadline) {
  const auto universe = mem::classical_universe(32);
  MarchCampaign campaign(march::march_c_minus(), {.n = 32});
  util::StopSource source;
  source.set_deadline_after(std::chrono::nanoseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const CampaignOutcome outcome = campaign.run(universe, source.token());
  EXPECT_EQ(outcome.status, RunStatus::kDeadlineExpired);
  EXPECT_EQ(outcome.shards_done, 0u);
}

TEST(StoppableRuns, SuitePreCancelledTokenReportsPerConfigStatus) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  CampaignSuite suite(
      [](const CampaignOptions& opt) {
        return core::extended_scheme_bom(opt.n);
      });
  util::StopSource source;
  source.request_stop();
  const SuiteResult result = suite.run(
      configs,
      [](const CampaignOptions& opt, std::size_t) {
        return mem::classical_universe(opt.n);
      },
      source.token());
  EXPECT_EQ(result.status, RunStatus::kCancelled);
  ASSERT_EQ(result.configs.size(), configs.size());
  for (const SuiteConfigResult& entry : result.configs) {
    EXPECT_EQ(entry.status, RunStatus::kCancelled);
  }
  EXPECT_EQ(result.overall.total, 0u);
}

TEST(StoppableRuns, SuiteIdleTokenBitIdenticalToPlainRun) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  auto factory = [](const CampaignOptions& opt) {
    return core::extended_scheme_bom(opt.n);
  };
  auto universe = [](const CampaignOptions& opt, std::size_t) {
    return mem::classical_universe(opt.n);
  };
  CampaignSuite suite(factory);
  const SuiteResult plain = suite.run(configs, universe);
  util::StopSource source;
  const SuiteResult stoppable = suite.run(configs, universe, source.token());
  EXPECT_EQ(stoppable.status, RunStatus::kComplete);
  ASSERT_EQ(stoppable.configs.size(), plain.configs.size());
  for (std::size_t c = 0; c < plain.configs.size(); ++c) {
    EXPECT_EQ(stoppable.configs[c].status, RunStatus::kComplete);
    expect_identical(stoppable.configs[c].result, plain.configs[c].result);
  }
  EXPECT_EQ(stoppable.overall, plain.overall);
}

}  // namespace
}  // namespace prt::analysis
