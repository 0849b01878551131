// Tests for the multi-configuration campaign suite
// (analysis/campaign_suite) and the shared golden-artifact cache
// (analysis/oracle_cache): per-configuration suite results must be
// bit-identical to standalone engine runs at any thread count, the
// cache must build exactly once per key under concurrency, and every
// entry point must reject malformed CampaignOptions and PRT schemes.
#include "analysis/campaign_suite.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign_service.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"

namespace prt::analysis {
namespace {

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.overall, b.overall);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.escapes, b.escapes);
  EXPECT_EQ(a.ops, b.ops);
}

std::vector<mem::Fault> classical_for(const CampaignOptions& opt,
                                      std::size_t /*index*/) {
  return mem::classical_universe(opt.n);
}

TEST(CampaignSuite, PrtConfigsBitIdenticalToStandaloneEngines) {
  const std::vector<CampaignOptions> configs = {
      {.n = 32}, {.n = 48, .ports = 2}, {.n = 24}};
  const SuiteResult suite = run_prt_suite(
      configs, [](const CampaignOptions& opt) {
        return core::extended_scheme_bom(opt.n);
      },
      classical_for);
  ASSERT_EQ(suite.configs.size(), configs.size());
  ClassCoverage overall;
  std::uint64_t ops = 0;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const auto universe = classical_for(configs[c], c);
    const CampaignResult standalone = run_prt_campaign(
        universe, core::extended_scheme_bom(configs[c].n), configs[c]);
    EXPECT_EQ(suite.configs[c].faults, universe.size());
    EXPECT_EQ(suite.configs[c].options.n, configs[c].n);
    expect_identical(standalone, suite.configs[c].result);
    overall.detected += standalone.overall.detected;
    overall.total += standalone.overall.total;
    ops += standalone.ops;
  }
  // The aggregate rollup is the sum of the per-configuration results.
  EXPECT_EQ(suite.overall, overall);
  EXPECT_EQ(suite.ops, ops);
  // The rendered table has one row per configuration plus the total.
  EXPECT_EQ(suite.table().rows(), configs.size() + 1);
}

TEST(CampaignSuite, PrtSuiteThreadCountInvariant) {
  const std::vector<CampaignOptions> configs = {{.n = 40}, {.n = 16}};
  auto factory = [](const CampaignOptions& opt) {
    return core::standard_scheme_bom(opt.n);
  };
  EngineOptions serial;
  serial.threads = 1;
  EngineOptions four;
  four.threads = 4;
  const SuiteResult a = run_prt_suite(configs, factory, classical_for, serial);
  const SuiteResult c = run_prt_suite(configs, factory, classical_for, four);
  ASSERT_EQ(a.configs.size(), configs.size());
  ASSERT_EQ(c.configs.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    expect_identical(a.configs[i].result, c.configs[i].result);
  }
  EXPECT_EQ(a.overall, c.overall);
  EXPECT_EQ(a.ops, c.ops);
}

TEST(CampaignSuite, SuiteReusableAcrossRuns) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  EngineOptions eng;
  eng.threads = 2;
  const CampaignSuite suite(
      [](const CampaignOptions& opt) {
        return core::standard_scheme_bom(opt.n);
      },
      eng);
  const SuiteResult first = suite.run(configs, classical_for);
  for (int round = 0; round < 2; ++round) {
    const SuiteResult again = suite.run(configs, classical_for);
    ASSERT_EQ(again.configs.size(), first.configs.size());
    for (std::size_t i = 0; i < first.configs.size(); ++i) {
      expect_identical(first.configs[i].result, again.configs[i].result);
    }
  }
}

TEST(CampaignSuite, MarchConfigsBitIdenticalToStandaloneCampaigns) {
  // Mixed grid: two bit-oriented points (transcript + packed path) and
  // a word-oriented one (scalar background sweep).
  const std::vector<CampaignOptions> configs = {
      {.n = 24}, {.n = 40, .ports = 2}, {.n = 16, .m = 2}};
  auto universe_for = [](const CampaignOptions& opt, std::size_t) {
    return opt.m == 1
               ? mem::classical_universe(opt.n)
               : mem::single_cell_universe(opt.n, opt.m, /*read_logic=*/true);
  };
  const auto test = march::march_c_minus();
  for (const bool early_abort : {false, true}) {
    MarchEngineOptions eng;
    eng.early_abort = early_abort;
    const SuiteResult suite = run_march_suite(configs, test, universe_for, eng);
    ASSERT_EQ(suite.configs.size(), configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto universe = universe_for(configs[c], c);
      const CampaignResult standalone =
          run_march_campaign(universe, test, configs[c], eng);
      expect_identical(standalone, suite.configs[c].result);
      EXPECT_EQ(suite.configs[c].workload, test.name);
    }
  }
}

TEST(CampaignSuite, EmptyGridAndEmptyUniverses) {
  const CampaignSuite suite([](const CampaignOptions& opt) {
    return core::standard_scheme_bom(opt.n);
  });
  const SuiteResult empty_grid =
      suite.run(std::span<const CampaignOptions>{}, classical_for);
  EXPECT_TRUE(empty_grid.configs.empty());
  EXPECT_EQ(empty_grid.overall.total, 0u);

  const std::vector<CampaignOptions> configs = {{.n = 24}};
  const SuiteResult empty_universe = suite.run(
      configs, [](const CampaignOptions&, std::size_t) {
        return std::vector<mem::Fault>{};
      });
  ASSERT_EQ(empty_universe.configs.size(), 1u);
  EXPECT_EQ(empty_universe.configs[0].faults, 0u);
  EXPECT_EQ(empty_universe.configs[0].result, CampaignResult{});
}

TEST(CampaignSuite, WorkerExceptionsPropagateAndSuiteStaysUsable) {
  const std::vector<CampaignOptions> configs = {{.n = 24}, {.n = 32}};
  EngineOptions eng;
  eng.threads = 3;
  const CampaignSuite suite(
      [](const CampaignOptions& opt) {
        return core::standard_scheme_bom(opt.n);
      },
      eng);
  // The generator blows up on one grid point, on a pool worker.
  EXPECT_THROW(
      (void)suite.run(
          configs,
          [](const CampaignOptions& opt,
             std::size_t) -> std::vector<mem::Fault> {
            if (opt.n == 32) throw std::runtime_error("boom");
            return mem::classical_universe(opt.n);
          }),
      std::runtime_error);
  // A malformed fault inside one configuration's universe surfaces too
  // (FaultyRam::inject's std::invalid_argument contract).
  EXPECT_THROW(
      (void)suite.run(configs,
                      [](const CampaignOptions& opt, std::size_t) {
                        auto u = mem::classical_universe(opt.n);
                        if (opt.n == 24) {
                          u.push_back(mem::Fault::saf({opt.n + 9, 0}, 1));
                        }
                        return u;
                      }),
      std::invalid_argument);
  // The pool survives a throwing run.
  const SuiteResult ok = suite.run(configs, classical_for);
  EXPECT_EQ(ok.configs.size(), configs.size());
}

// --- OracleCache ----------------------------------------------------

TEST(OracleCache, BuildsOncePerKeyUnderConcurrentLookups) {
  OracleCache cache;
  const auto scheme = core::extended_scheme_bom(64);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const OracleCache::PrtEntry>> entries(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { entries[t] = cache.prt(scheme, /*n=*/64); });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(cache.prt_builds(), 1u);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(entries[0], entries[t]);  // one shared entry, not copies
  }
  EXPECT_EQ(entries[0]->transcript.n, 64u);
  EXPECT_FALSE(entries[0]->transcript.recs.empty());

  // A different key builds separately; the same key never rebuilds.
  (void)cache.prt(scheme, /*n=*/32);
  EXPECT_EQ(cache.prt_builds(), 2u);
  (void)cache.prt(scheme, /*n=*/64);
  EXPECT_EQ(cache.prt_builds(), 2u);
  EXPECT_EQ(cache.size(), 2u);

  // clear() drops entries but outstanding pointers stay valid.
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(entries[0]->transcript.n, 64u);
  (void)cache.prt(scheme, /*n=*/64);
  EXPECT_EQ(cache.prt_builds(), 3u);
}

TEST(OracleCache, MarchKeysSplitOnBackgroundAndDelay) {
  OracleCache cache;
  const auto test = march::march_c_minus();
  const auto a = cache.march(test, 32, /*background=*/false);
  const auto b = cache.march(test, 32, /*background=*/false);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.march_builds(), 1u);
  (void)cache.march(test, 32, /*background=*/true);
  (void)cache.march(test, 32, /*background=*/false, /*delay_ticks=*/123);
  (void)cache.march(test, 64, /*background=*/false);
  EXPECT_EQ(cache.march_builds(), 4u);
  // A renamed but structurally identical test shares the entry.
  auto renamed = test;
  renamed.name = "renamed";
  (void)cache.march(renamed, 32, /*background=*/false);
  EXPECT_EQ(cache.march_builds(), 4u);
}

TEST(OracleCache, OneBuildUnderConcurrentEngineConstruction) {
  // Engines share OracleCache::global(): constructing several engines
  // for one never-before-seen (scheme, n) concurrently must compile
  // the oracle exactly once.
  const auto scheme = core::retention_scheme(53, 1, /*pause_ticks=*/7);
  CampaignOptions opt;
  opt.n = 53;
  const std::size_t before = OracleCache::global().prt_builds();
  constexpr int kThreads = 6;
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] { CampaignEngine engine(scheme, opt); });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(OracleCache::global().prt_builds(), before + 1);
}

// --- central CampaignOptions validation -----------------------------

TEST(CampaignValidation, RejectsMalformedGeometryOnEveryEntryPath) {
  const auto scheme = core::standard_scheme_bom(64);
  const auto test = march::march_c_minus();
  const auto universe = mem::classical_universe(64);
  const std::vector<CampaignOptions> bad = {
      {.n = 0},                    // empty memory
      {.n = 64, .m = 0},           // zero width
      {.n = 64, .m = 33},          // wider than the SimRam word
      {.n = 64, .ports = 3},       // per-port arrays are sized 1/2/4
  };
  for (const CampaignOptions& opt : bad) {
    EXPECT_THROW((void)validate_campaign_options(opt), std::invalid_argument);
    EXPECT_THROW(CampaignEngine(scheme, opt), std::invalid_argument);
    EXPECT_THROW(MarchCampaign(test, opt), std::invalid_argument);
    EXPECT_THROW(
        (void)run_campaign(universe, march_algorithm(test), opt),
        std::invalid_argument);
    const std::vector<CampaignOptions> grid = {{.n = 64}, opt};
    EXPECT_THROW((void)run_march_suite(grid, test,
                                       [](const CampaignOptions& o,
                                          std::size_t) {
                                         return mem::classical_universe(o.n);
                                       }),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(validate_campaign_options({.n = 64, .m = 32, .ports = 4}));
}

/// Runs `fn` and requires a std::invalid_argument whose message names
/// `value`.
template <typename Fn>
void expect_rejected(Fn&& fn, const std::string& value) {
  try {
    fn();
    ADD_FAILURE() << "no std::invalid_argument naming \"" << value << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
        << e.what();
  }
}

// A malformed scheme used to run: a GF(16) scheme on 1-bit words
// reported every fault detected (the fault-free memory "failed" too),
// a GF(2) scheme on 4-bit words crashed, an empty scheme reported 0 %
// and an m * k > 64 register flagged a fault-free memory.  Every
// entry point now rejects it naming the bad value — the engine, the
// suite, run_campaign through prt_algorithm, and the service (kFailed
// carrying the message).
TEST(CampaignValidation, RejectsMalformedSchemesOnEveryEntryPath) {
  auto edit = [](core::PrtScheme scheme, auto&& change) {
    change(scheme.iterations.front());
    return scheme;
  };
  core::PrtScheme k65;
  k65.iterations.resize(1);
  k65.iterations[0].g.assign(66, 1);
  k65.iterations[0].config.init.assign(65, 0);
  struct Case {
    core::PrtScheme scheme;
    CampaignOptions opt;
    std::string value;
  };
  const auto bom = core::standard_scheme_bom(64);
  const std::vector<Case> cases = {
      {core::extended_scheme_wom(64, 4), {.n = 64, .m = 1}, "field degree 4"},
      {core::extended_scheme_bom(64), {.n = 64, .m = 4}, "field degree 1"},
      {core::PrtScheme{}, {.n = 64}, "no iterations"},
      {edit(bom, [](auto& it) { it.g = {1}; }), {.n = 64}, "k = 0"},
      {bom, {.n = 2}, "k = 2, n = 2"},
      {k65, {.n = 80}, "k = 65"},
      {edit(bom, [](auto& it) { it.config.init = {1}; }), {.n = 64},
       "seeds (got 1)"},
      {edit(bom, [](auto& it) { it.g = {1, 2, 1}; }), {.n = 64},
       "coefficient 2"},
      {edit(bom, [](auto& it) { it.config.init = {0, 3}; }), {.n = 64},
       "seed 3"},
      {edit(bom, [](auto& it) { it.g = {0, 0, 1}; }), {.n = 64},
       "g0 and gk"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.value);
    const auto universe = mem::single_cell_universe(c.opt.n, 1, false);
    expect_rejected([&] { CampaignEngine engine(c.scheme, c.opt); }, c.value);
    expect_rejected(
        [&] {
          (void)run_prt_suite(
              std::vector<CampaignOptions>{c.opt},
              [&](const CampaignOptions&) { return c.scheme; },
              [&](const CampaignOptions&, std::size_t) { return universe; });
        },
        c.value);
    expect_rejected(
        [&] {
          (void)run_campaign(universe, prt_algorithm(c.scheme), c.opt);
        },
        c.value);
    CampaignService service;
    CampaignRequest req;
    req.scheme = c.scheme;
    req.options = c.opt;
    req.universe = universe;
    const RequestOutcome out = service.submit(std::move(req)).wait();
    EXPECT_EQ(out.status, RequestStatus::kFailed);
    EXPECT_NE(out.error.find(c.value), std::string::npos) << out.error;
  }
}

TEST(CampaignValidation, RejectsMarchDataIndexOutsideNotation) {
  // A hand-built test with a data index the {0, 1} background
  // expansion cannot represent must be rejected up-front, not run with
  // silently aliased data.
  march::MarchTest bad;
  bad.name = "bad";
  march::MarchElement elem;
  elem.ops.push_back({march::MarchOp::Type::kWrite, 2});
  bad.elements.push_back(elem);
  CampaignOptions opt;
  opt.n = 16;
  EXPECT_THROW(MarchCampaign(bad, opt), std::invalid_argument);
}

}  // namespace
}  // namespace prt::analysis
