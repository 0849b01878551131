// The per-layer drive of the traced run.  It re-drives the bulk
// universes on one thread through the layer calls -- universe, oracle,
// transcript, then per batch reset/add_fault and replay at 64 and 512
// lanes, then merge -- and times the three bulk calls at 1 worker and
// at the run's worker count.  Small probes time the oracle cache, the
// pool's per-batch dispatch and a durable checkpoint-sized write.  Every
// replayed verdict must match the corresponding campaign call.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_suite.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "common.hpp"
#include "core/op_transcript.hpp"
#include "core/prt_packed.hpp"
#include "march/march_library.hpp"
#include "march/march_runner.hpp"
#include "mem/packed_fault_ram.hpp"
#include "util/durable_write.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace prt;
using analysis::CampaignOptions;
using analysis::CampaignResult;

using Wide = mem::WideWord<8>;

constexpr unsigned kCacheHitLookups = 200;
constexpr std::size_t kPoolBatches = 2048;
constexpr unsigned kPoolRepeats = 5;
constexpr unsigned kDurableWrites = 16;
constexpr std::size_t kCheckpointBytes = 4096;

/// Replays `universe` one lane batch at a time: a mem.inject span around
/// reset + add_fault, a `replay_span` around the replay itself.  Returns
/// one CampaignResult per batch (escape indices are universe indices).
template <typename W, typename RunBatch>
std::vector<CampaignResult> replay(const char* replay_span,
                                   std::span<const mem::Fault> universe,
                                   mem::Addr n, unsigned width,
                                   RunBatch&& run_batch) {
  constexpr unsigned kLanes = mem::LaneTraits<W>::kLanes;
  mem::PackedFaultRamT<W> ram(n, width);
  std::vector<CampaignResult> batches;
  for (std::size_t begin = 0; begin < universe.size(); begin += kLanes) {
    const std::size_t end = std::min<std::size_t>(begin + kLanes, universe.size());
    {
      SpanScope inject("mem.inject");
      inject.arg("lanes", static_cast<std::uint64_t>(kLanes));
      ram.reset();
      for (std::size_t i = begin; i < end; ++i) (void)ram.add_fault(universe[i]);
    }
    std::pair<W, std::uint64_t> verdict;
    {
      SpanScope span(replay_span);
      verdict = run_batch(ram);
      span.arg("ops", verdict.second);
      span.arg("faults", static_cast<std::uint64_t>(end - begin));
    }
    const W detected = verdict.first & ram.active_mask();
    CampaignResult r;
    for (std::size_t i = begin; i < end; ++i) {
      const bool hit = mem::lane_test(detected, static_cast<unsigned>(i - begin));
      auto& cls = r.by_class[mem::fault_class(universe[i].kind)];
      ++cls.total;
      ++r.overall.total;
      if (hit) {
        ++cls.detected;
        ++r.overall.detected;
      } else {
        r.escapes.push_back(i);
      }
    }
    r.ops = verdict.second;
    batches.push_back(std::move(r));
  }
  return batches;
}

template <typename W>
auto prt_batch(const core::OpTranscript& t, bool early_abort) {
  return [&t, early_abort, scratch = core::PackedScratchT<W>{}](
             mem::PackedFaultRamT<W>& ram) mutable {
    core::PackedRunOptions options;
    options.early_abort = early_abort;
    const auto v = core::run_prt_packed(ram, t, options, scratch);
    return std::pair<W, std::uint64_t>{v.detected, v.scalar_ops};
  };
}

template <typename W>
auto march_batch(const core::OpTranscript& t) {
  return [&t](mem::PackedFaultRamT<W>& ram) {
    const auto v = march::run_march_packed(ram, t, {});
    return std::pair<W, std::uint64_t>{v.detected, v.scalar_ops};
  };
}

struct Compiled {
  core::PrtOracle oracle;
  core::OpTranscript transcript;
};

Compiled compile(const core::PrtScheme& scheme, mem::Addr n) {
  Compiled c;
  {
    SpanScope span("core.oracle");
    c.oracle = core::make_prt_oracle(scheme, n);
  }
  {
    SpanScope span("core.transcript");
    c.transcript = core::make_op_transcript(scheme, c.oracle);
  }
  return c;
}

std::vector<mem::Fault> traced_universe(auto&& make) {
  SpanScope span("mem.universe");
  return make();
}

}  // namespace

int run_layers(const Options& opt) {
  Checks checks;
  std::uint64_t attempted = 0;
  auto expect = [&](bool same, const std::string& what) {
    ++attempted;
    if (!same) checks.fail(what);
  };

  // --- one-thread replay through the layer calls ---------------------
  const std::vector<CampaignOptions> grid = suite_grid();
  const std::vector<mem::Fault> reference = traced_universe([] {
    return mem::van_de_goor_universe(kReferenceN);
  });
  std::vector<std::vector<mem::Fault>> suite_universes;
  for (const CampaignOptions& g : grid) {
    suite_universes.push_back(
        traced_universe([&] { return suite_universe(g); }));
  }
  const std::vector<mem::Fault>& abort_universe = suite_universes[1];
  const mem::Addr abort_n = grid[1].n;

  const Compiled bom = compile(core::extended_scheme_bom(kReferenceN), kReferenceN);
  core::OpTranscript march_t;
  {
    SpanScope span("march.transcript");
    march_t = march::make_march_transcript(march::march_c_minus(), kReferenceN,
                                           false);
  }
  const Compiled abort_c = compile(core::extended_scheme_bom(abort_n), abort_n);

  const auto bom64 = replay<mem::LaneWord>(
      "core.replay_bom_w64", reference, kReferenceN, 1,
      prt_batch<mem::LaneWord>(bom.transcript, false));
  CampaignResult bom_merged;
  {
    SpanScope span("analysis.merge");
    span.arg("batches", static_cast<std::uint64_t>(bom64.size()));
    bom_merged = analysis::merge_results(bom64);
  }
  const auto bom512 = replay<Wide>("core.replay_bom_w512", reference, kReferenceN,
                                   1, prt_batch<Wide>(bom.transcript, false));
  expect(same_verdict(analysis::merge_results(bom512), bom_merged),
         "PRT-ext replay differs between 64 and 512 lanes");

  const auto march64 = replay<mem::LaneWord>(
      "march.replay_w64", reference, kReferenceN, 1,
      march_batch<mem::LaneWord>(march_t));
  const auto march512 = replay<Wide>("march.replay_w512", reference, kReferenceN,
                                     1, march_batch<Wide>(march_t));
  const CampaignResult march_merged = analysis::merge_results(march64);
  expect(same_verdict(analysis::merge_results(march512), march_merged),
         "March replay differs between 64 and 512 lanes");

  std::vector<CampaignResult> wom_merged;
  for (std::size_t c = 0; c < grid.size(); ++c) {
    if (grid[c].m == 1) continue;
    const Compiled wom = compile(suite_scheme(grid[c]), grid[c].n);
    const auto w64 = replay<mem::LaneWord>(
        "core.replay_wom_w64", suite_universes[c], grid[c].n, grid[c].m,
        prt_batch<mem::LaneWord>(wom.transcript, false));
    const auto w512 =
        replay<Wide>("core.replay_wom_w512", suite_universes[c], grid[c].n,
                     grid[c].m, prt_batch<Wide>(wom.transcript, false));
    wom_merged.push_back(analysis::merge_results(w64));
    expect(same_verdict(analysis::merge_results(w512), wom_merged.back()),
           "WOM replay differs between 64 and 512 lanes");
  }

  const auto abort64 = replay<mem::LaneWord>(
      "core.replay_abort_w64", abort_universe, abort_n, 1,
      prt_batch<mem::LaneWord>(abort_c.transcript, true));
  const auto abort512 =
      replay<Wide>("core.replay_abort_w512", abort_universe, abort_n, 1,
                   prt_batch<Wide>(abort_c.transcript, true));
  const CampaignResult abort_merged = analysis::merge_results(abort64);
  expect(same_verdict(analysis::merge_results(abort512), abort_merged),
         "early-abort replay differs between 64 and 512 lanes");

  // --- the three bulk calls at 1 worker and at the run's count -------
  CampaignOptions ref_opt;
  ref_opt.n = kReferenceN;
  const analysis::UniverseGenerator generator =
      [&](const CampaignOptions&, std::size_t index) {
        return suite_universes[index];
      };
  std::vector<unsigned> worker_counts = {1};
  if (opt.threads > 1) worker_counts.push_back(opt.threads);
  for (const unsigned workers : worker_counts) {
    analysis::EngineOptions eng;
    eng.threads = workers;
    analysis::MarchEngineOptions meng;
    meng.threads = workers;
    const analysis::CampaignEngine engine(core::extended_scheme_bom(kReferenceN),
                                          ref_opt, eng);
    const analysis::MarchCampaign campaign(march::march_c_minus(), ref_opt, meng);
    const analysis::CampaignSuite suite(analysis::SchemeFactory(suite_scheme), eng);
    CampaignResult r;
    {
      SpanScope span("analysis.engine");
      span.arg("workers", static_cast<std::uint64_t>(workers));
      r = engine.run(reference);
      span.arg("ops", r.ops);
    }
    expect(same_verdict(r, bom_merged),
           "layer replay differs from CampaignEngine::run");
    {
      SpanScope span("analysis.march");
      span.arg("workers", static_cast<std::uint64_t>(workers));
      r = campaign.run(reference);
      span.arg("ops", r.ops);
    }
    expect(same_verdict(r, march_merged),
           "layer replay differs from MarchCampaign::run");
    analysis::SuiteResult s;
    {
      SpanScope span("analysis.suite");
      span.arg("workers", static_cast<std::uint64_t>(workers));
      s = suite.run(grid, generator);
      span.arg("ops", s.ops);
    }
    std::size_t wom = 0;
    for (std::size_t c = 0; c < s.configs.size(); ++c) {
      if (grid[c].m == 1) continue;
      expect(wom < wom_merged.size() &&
                 same_verdict(s.configs[c].result, wom_merged[wom++]),
             "layer replay differs from CampaignSuite::run");
    }
  }
  {
    analysis::EngineOptions eng;
    eng.threads = opt.threads;
    eng.early_abort = true;
    CampaignOptions abort_opt;
    abort_opt.n = abort_n;
    expect(same_verdict(analysis::run_prt_campaign(
                            abort_universe, core::extended_scheme_bom(abort_n),
                            abort_opt, eng),
                        abort_merged),
           "early-abort layer replay differs from CampaignEngine::run");
  }

  // --- probes ----------------------------------------------------------
  {
    analysis::OracleCache cache;
    const core::PrtScheme scheme = core::extended_scheme_bom(kReferenceN);
    const march::MarchTest test = march::march_c_minus();
    {
      SpanScope span("analysis.cache_miss");
      (void)cache.prt(scheme, kReferenceN);
    }
    {
      SpanScope span("analysis.cache_miss");
      (void)cache.march(test, kReferenceN, false);
    }
    for (unsigned i = 0; i < kCacheHitLookups; ++i) {
      {
        SpanScope span("analysis.cache_hit");
        (void)cache.prt(scheme, kReferenceN);
      }
      SpanScope span("analysis.cache_hit");
      (void)cache.march(test, kReferenceN, false);
    }
  }
  {
    util::ThreadPool pool(opt.threads);
    for (unsigned i = 0; i < kPoolRepeats; ++i) {
      SpanScope span("util.pool_batches");
      span.arg("batches", static_cast<std::uint64_t>(kPoolBatches));
      (void)pool.parallel_for_batches(kPoolBatches, 1,
                                      [](std::size_t, std::size_t, std::size_t) {});
    }
  }
  {
    const std::filesystem::path dir =
        std::filesystem::path(opt.workdir) / "checkpoints";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "probe.ckpt").string();
    const std::string contents(kCheckpointBytes, 'x');
    for (unsigned i = 0; i < kDurableWrites; ++i) {
      SpanScope span("util.durable_write");
      span.arg("bytes", static_cast<std::uint64_t>(contents.size()));
      util::durable_replace_file(path, contents);
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  Json result;
  result.str("workload", "layers")
      .num("attempted", attempted)
      .num("failed", std::min(attempted, checks.failures()));
  return finish(opt, result, checks, 2, "layers");
}

}  // namespace perfbench
