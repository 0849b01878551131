// Campaign-as-a-service: concurrent fault-injection requests on one
// shared worker pool, with cancellation, deadlines and checkpointed
// resume — the long-running-qualification workflow the synchronous
// engines (see fault_campaign.cpp) cannot express.
//
// The program drives one CampaignService through synthetic traffic:
//
//   1. a mixed batch of PRT and March requests running to completion,
//   2. a request cancelled mid-flight (resolves to an exact partial
//      result over the shards — fixed 2048-fault batches — that
//      finished),
//   3. a request with a deliberately tight deadline,
//   4. a checkpointed request that is cancelled, then resumed from its
//      checkpoint file — the resumed result is bit-identical to an
//      uninterrupted run.
//
//   $ ./campaign_service [n]        (default n = 96)
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "analysis/campaign_service.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "parse_args.hpp"

namespace {

prt::analysis::CampaignRequest prt_request(prt::mem::Addr n) {
  prt::analysis::CampaignRequest req;
  req.scheme = prt::core::extended_scheme_bom(n);
  req.options.n = n;
  req.universe = prt::mem::classical_universe(n);
  return req;
}

prt::analysis::CampaignRequest march_request(prt::mem::Addr n) {
  prt::analysis::CampaignRequest req;
  req.march_test = prt::march::march_c_minus();
  req.options.n = n;
  req.universe = prt::mem::classical_universe(n);
  return req;
}

/// Repeats the request's universe until it fills at least 64 shards,
/// so a cancel or a deadline lands mid-run.
prt::analysis::CampaignRequest long_request(
    prt::analysis::CampaignRequest req) {
  const std::vector<prt::mem::Fault> base = req.universe;
  while (req.universe.size() < 64 * 2048) {
    req.universe.insert(req.universe.end(), base.begin(), base.end());
  }
  return req;
}

void report(const char* label, const prt::analysis::RequestOutcome& out) {
  std::printf("%-22s %-19s shards %zu/%zu (resumed %zu)  coverage %llu/%llu\n",
              label, prt::analysis::to_string(out.status).c_str(),
              out.shards_done, out.shards_total, out.shards_resumed,
              static_cast<unsigned long long>(out.result.overall.detected),
              static_cast<unsigned long long>(out.result.overall.total));
  if (!out.error.empty()) std::printf("%-22s   error: %s\n", "", out.error.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace prt;
  unsigned long arg = 96;
  if (argc > 1 && !examples::parse_unsigned(argv[1], 4, 1UL << 20, arg)) {
    std::fprintf(stderr, "usage: %s [n]   (4 <= n <= 2^20)\n", argv[0]);
    return 2;
  }
  const auto n = static_cast<mem::Addr>(arg);

  // A small running window: requests past it wait in their class
  // queue.
  analysis::CampaignService service({.max_running = 8});

  // 1. A batch of concurrent requests — PRT and March interleaved on
  //    the one pool; each ticket resolves independently.  The March
  //    request is admitted high-priority: were the window full, it
  //    would dispatch ahead of every queued normal/batch request.
  std::vector<analysis::CampaignService::Ticket> batch;
  batch.push_back(service.submit(prt_request(n)));
  {
    analysis::CampaignRequest req = march_request(n);
    req.priority = analysis::RequestPriority::kHigh;
    batch.push_back(service.submit(std::move(req)));
  }
  {
    analysis::CampaignRequest req = prt_request(n / 2);
    req.priority = analysis::RequestPriority::kBatch;
    batch.push_back(service.submit(std::move(req)));
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    char label[32];
    std::snprintf(label, sizeof label, "batch[%zu]", i);
    report(label, batch[i].wait());
  }

  // 2. Cancellation: the shard loops observe the token at the next
  //    fault boundary and the outcome is an exact merge of whatever
  //    shards completed — possibly all of them on a fast machine.
  {
    analysis::CampaignService::Ticket ticket =
        service.submit(long_request(prt_request(n)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ticket.cancel();
    report("cancelled", ticket.wait());
  }

  // 3. Deadline: same mechanism, triggered by the wall clock.
  {
    analysis::CampaignRequest req = long_request(march_request(n / 2));
    req.deadline = std::chrono::milliseconds(1);
    report("deadline 1ms", service.submit(std::move(req)).wait());
  }

  // 4. Checkpoint + resume: interrupt a checkpointed request, then
  //    resubmit it with resume=true.  The resumed run adopts the
  //    checkpointed shards and its final result is bit-identical to an
  //    uninterrupted run (asserted exhaustively in
  //    tests/test_campaign_service.cpp; printed here for inspection).
  {
    const std::string path = "campaign_service_example.ckpt";
    analysis::CampaignRequest req = long_request(prt_request(n));
    req.checkpoint_path = path;
    analysis::CampaignService::Ticket ticket = service.submit(req);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ticket.cancel();
    report("interrupted", ticket.wait());

    req.resume = true;
    report("resumed", service.submit(std::move(req)).wait());
    std::remove(path.c_str());
  }

  const analysis::CampaignService::Stats stats = service.stats();
  std::printf(
      "\nservice stats: accepted %llu, completed %llu, partial %llu, "
      "failed %llu, rejected %llu, shedded %llu, checkpoint writes %llu, "
      "shards resumed %llu\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.partial),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(stats.shedded),
      static_cast<unsigned long long>(stats.checkpoint_writes),
      static_cast<unsigned long long>(stats.shards_resumed));
  std::printf(
      "oracle cache: hits %llu, misses %llu, evictions %llu, resident "
      "%llu entries / %llu bytes\n",
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.cache_evictions),
      static_cast<unsigned long long>(stats.cache_entries),
      static_cast<unsigned long long>(stats.cache_bytes));
  return 0;
}
