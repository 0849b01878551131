// The bulk workload: one caller thread in a closed loop; each
// iteration makes three calls (CampaignEngine on the reference
// universe, MarchCampaign on the same universe, one CampaignSuite over
// the two-axis grid).  Every call's verdict must repeat the first
// iteration's bit for bit, and the first iteration must agree with the
// scalar run_campaign reference on a seeded sample of each universe.
#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_suite.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "common.hpp"
#include "march/march_library.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace prt;
using analysis::CampaignOptions;
using analysis::CampaignResult;

/// Set-ups per run; the reported set-up time is their median.
constexpr unsigned kSetups = 5;
/// Faults per universe replayed through the scalar reference.
constexpr std::size_t kCheckSample = 48;
/// Faults per warm-up call: a few scheduler batches per worker.
constexpr std::size_t kWarmupFaults = 4096;

struct Bulk {
  std::vector<mem::Fault> reference;
  std::vector<CampaignOptions> grid;
  std::vector<std::vector<mem::Fault>> suite_universes;
  std::unique_ptr<analysis::CampaignEngine> engine;
  std::unique_ptr<analysis::MarchCampaign> march;
  std::unique_ptr<analysis::CampaignSuite> suite;
};

CampaignOptions reference_options() {
  CampaignOptions opt;
  opt.n = kReferenceN;
  return opt;
}

/// Universe generation, golden-artifact compile with the process cache
/// cleared, and engine/campaign/suite construction.
std::unique_ptr<Bulk> set_up(unsigned threads) {
  SpanScope span("bulk.setup");
  analysis::OracleCache::global().clear();
  auto b = std::make_unique<Bulk>();
  b->grid = suite_grid();
  {
    SpanScope universe("mem.universe");
    b->reference = mem::van_de_goor_universe(kReferenceN);
    for (const CampaignOptions& opt : b->grid) {
      b->suite_universes.push_back(suite_universe(opt));
    }
  }
  analysis::EngineOptions engine;
  engine.threads = threads;
  analysis::MarchEngineOptions march_engine;
  march_engine.threads = threads;
  b->engine = std::make_unique<analysis::CampaignEngine>(
      core::extended_scheme_bom(kReferenceN), reference_options(), engine);
  b->march = std::make_unique<analysis::MarchCampaign>(
      march::march_c_minus(), reference_options(), march_engine);
  b->suite = std::make_unique<analysis::CampaignSuite>(
      analysis::SchemeFactory(suite_scheme), engine);
  // The suite fetches its artifacts lazily; compile them here so the
  // timed calls measure replay, not the first compile.
  for (const CampaignOptions& opt : b->grid) {
    (void)analysis::OracleCache::global().prt(suite_scheme(opt), opt.n);
  }
  // Warm-up: one short call of each kind starts the pools' workers and
  // touches their per-thread scratch, which the first full call would
  // otherwise pay for.
  const std::span<const mem::Fault> head(b->reference.data(), kWarmupFaults);
  (void)b->engine->run(head);
  (void)b->march->run(head);
  const analysis::UniverseGenerator heads = [&b](const CampaignOptions&,
                                                std::size_t index) {
    const auto& u = b->suite_universes[index];
    return std::vector<mem::Fault>(u.begin(), u.begin() + kWarmupFaults);
  };
  (void)b->suite->run(b->grid, heads);
  return b;
}

struct Call {
  const char* kind;
  double seconds;
  std::uint64_t faults;
  std::uint64_t ops;
  bool ok;
};

/// Replays a seeded sample of `universe` through the scalar reference
/// and checks (1) the fast path gives the same verdict on the sample and
/// (2) every sampled fault's verdict in `full` matches the reference.
void check_sample(const std::string& label, std::span<const mem::Fault> universe,
                  const analysis::TestAlgorithm& algorithm,
                  const CampaignOptions& opt, const CampaignResult& full,
                  const std::function<CampaignResult(std::span<const mem::Fault>)>& fast,
                  std::uint64_t seed, Checks& checks, bool& ok) {
  const std::vector<std::size_t> idx =
      sample_indices(universe.size(), kCheckSample, seed);
  std::vector<mem::Fault> sample;
  sample.reserve(idx.size());
  for (const std::size_t i : idx) sample.push_back(universe[i]);
  const CampaignResult scalar = analysis::run_campaign(sample, algorithm, opt);
  if (!same_verdict(scalar, fast(sample))) {
    checks.fail(label + ": verdict on the sampled faults differs from "
                        "analysis::run_campaign");
    ok = false;
  }
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const bool escaped_full =
        std::binary_search(full.escapes.begin(), full.escapes.end(), idx[k]);
    const bool escaped_scalar =
        std::binary_search(scalar.escapes.begin(), scalar.escapes.end(), k);
    if (escaped_full != escaped_scalar) {
      checks.fail(label + ": fault " + std::to_string(idx[k]) +
                  " verdict differs from analysis::run_campaign");
      ok = false;
      return;
    }
  }
}

}  // namespace

int run_bulk(const Options& opt) {
  Checks checks;
  std::vector<double> setup_s;
  std::unique_ptr<Bulk> bulk;
  for (unsigned i = 0; i < kSetups; ++i) {
    bulk.reset();
    const auto t0 = Clock::now();
    bulk = set_up(opt.threads);
    setup_s.push_back(seconds_since(t0));
  }
  Bulk& b = *bulk;
  const analysis::UniverseGenerator generator =
      [&b](const CampaignOptions&, std::size_t index) {
        return b.suite_universes[index];
      };
  std::size_t suite_faults = 0;
  for (const auto& u : b.suite_universes) suite_faults += u.size();

  CampaignResult first_engine;
  CampaignResult first_march;
  std::vector<CampaignResult> first_suite;
  std::vector<Call> calls;
  std::vector<double> iteration_s;
  // Each call is timed on its own; the loop stops starting iterations
  // once the phase length is used up (or after the fixed count).
  auto timed = [&](const char* kind, std::uint64_t faults, auto&& body) {
    SpanScope span(kind);
    span.arg("workers", static_cast<std::uint64_t>(opt.threads));
    span.arg("faults", faults);
    const auto t0 = Clock::now();
    Call call{kind, 0.0, faults, 0, true};
    body(call);
    call.seconds = seconds_since(t0);
    span.arg("ops", call.ops);
    calls.push_back(call);
  };
  const auto phase = Clock::now();
  for (unsigned it = 0;; ++it) {
    if (opt.iterations != 0 ? it >= opt.iterations
                            : seconds_since(phase) >= opt.seconds) {
      break;
    }
    SpanScope span("bulk.iteration");
    const auto t0 = Clock::now();
    timed("analysis.engine", b.reference.size(), [&](Call& call) {
      CampaignResult r = b.engine->run(b.reference);
      call.ops = r.ops;
      if (it == 0) {
        first_engine = std::move(r);
      } else if (!same_verdict(r, first_engine)) {
        checks.fail("engine verdict differs from the first iteration");
        call.ok = false;
      }
    });
    timed("analysis.march", b.reference.size(), [&](Call& call) {
      CampaignResult r = b.march->run(b.reference);
      call.ops = r.ops;
      if (it == 0) {
        first_march = std::move(r);
      } else if (!same_verdict(r, first_march)) {
        checks.fail("March verdict differs from the first iteration");
        call.ok = false;
      }
    });
    timed("analysis.suite", suite_faults, [&](Call& call) {
      analysis::SuiteResult r = b.suite->run(b.grid, generator);
      call.ops = r.ops;
      if (r.status != analysis::RunStatus::kComplete ||
          r.configs.size() != b.grid.size()) {
        checks.fail("suite did not complete");
        call.ok = false;
        return;
      }
      for (std::size_t c = 0; c < r.configs.size(); ++c) {
        if (r.configs[c].status != analysis::RunStatus::kComplete) {
          checks.fail("suite configuration did not complete");
          call.ok = false;
        }
        if (it == 0) {
          first_suite.push_back(std::move(r.configs[c].result));
        } else if (!same_verdict(r.configs[c].result, first_suite[c])) {
          checks.fail("suite verdict differs from the first iteration");
          call.ok = false;
        }
      }
    });
    iteration_s.push_back(seconds_since(t0));
  }

  // Scalar reference on a seeded sample of every universe, compared
  // with the first iteration's verdicts.
  const std::uint64_t peak_kib = peak_rss_kib();
  bool engine_ok = true;
  bool march_ok = true;
  bool suite_ok = true;
  if (!calls.empty()) {
    const CampaignOptions ref = reference_options();
    check_sample("engine", b.reference,
                 analysis::prt_algorithm(core::extended_scheme_bom(kReferenceN)),
                 ref, first_engine,
                 [&](std::span<const mem::Fault> s) { return b.engine->run(s); },
                 opt.seed ^ 0x1111, checks, engine_ok);
    check_sample("march", b.reference,
                 analysis::march_algorithm(march::march_c_minus()), ref,
                 first_march,
                 [&](std::span<const mem::Fault> s) { return b.march->run(s); },
                 opt.seed ^ 0x2222, checks, march_ok);
    for (std::size_t c = 0; c < b.grid.size() && c < first_suite.size(); ++c) {
      analysis::EngineOptions eng;
      eng.threads = opt.threads;
      const analysis::CampaignEngine engine(suite_scheme(b.grid[c]), b.grid[c],
                                            eng);
      check_sample("suite config " + std::to_string(c), b.suite_universes[c],
                   analysis::prt_algorithm(suite_scheme(b.grid[c])), b.grid[c],
                   first_suite[c],
                   [&](std::span<const mem::Fault> s) { return engine.run(s); },
                   opt.seed ^ (0x3333 + c), checks, suite_ok);
    }
  }

  std::vector<std::string> rendered;
  std::uint64_t failed = 0;
  for (const Call& c : calls) {
    const std::string kind = c.kind;
    const bool ok = c.ok && (kind != "analysis.engine" || engine_ok) &&
                    (kind != "analysis.march" || march_ok) &&
                    (kind != "analysis.suite" || suite_ok);
    if (!ok) ++failed;
    Json j;
    j.str("kind", kind)
        .num("seconds", c.seconds)
        .num("faults", c.faults)
        .num("ops", c.ops)
        .boolean("ok", ok);
    rendered.push_back(j.render());
  }
  Json result;
  result.str("workload", "bulk")
      .raw("setup_s", json_numbers(setup_s))
      .raw("iteration_s", json_numbers(iteration_s))
      .raw("calls", json_array(rendered))
      .num("peak_rss_kib", peak_kib)
      .num("attempted", static_cast<std::uint64_t>(calls.size()))
      .num("failed", failed);
  return finish(opt, result, checks, 1, "bulk");
}

}  // namespace perfbench
