// Campaign-engine micro-benchmark: every campaign surface against the
// serial live reference it must reproduce — run_campaign over
// prt_algorithm / march_algorithm, one FaultyRam run per fault — with
// and without early abort.
//
// The universe families measured and written to BENCH_campaign.json
// (and appended, one compact line per run, to BENCH_history.jsonl —
// the cross-PR perf trajectory):
//
//  * the shared classical universe (SAF/TF/CFin/bridge/AF), every
//    fault family of which rides the packed lanes, with early abort
//    composing with packing;
//  * the lane-compatible single-cell universe (SAF/TF/WDF + read
//    logic, 9n faults), where the packed path's 512-faults-per-sweep
//    gain is undiluted;
//  * a measured-scaling sweep: the same lane-compatible universe over
//    thread counts {1, 2, 4, 8} on the fixed-batch executor, every
//    cell parity-checked — the curve CI records per run to show the
//    multicore gain on real cores;
//  * a March campaign over the classical universe (March C-), where
//    the same lanes drive march::run_march_packed via
//    analysis::MarchCampaign;
//  * a word-oriented (WOM, m = 4) single-cell universe with the
//    extended GF(16) scheme — the packed path carries one bit plane per
//    field bit and feeds back through the transcript's compiled tap
//    matrices;
//  * a static-NPSF grid universe, where every lane evaluates its
//    4-cell neighbourhood trigger bit-parallel over the neighbour
//    lane words;
//  * a retention universe under a pause-tick scheme, where the packed
//    lanes decay analytically from pause-boundary checkpoints instead
//    of per-access scans;
//  * a dual-port classical universe (ports = 2): the PRT engines
//    drive port 0 only, so the packed lanes apply unchanged while the
//    scalar reference models the second port's sense amp;
//  * a multi-configuration suite over n x ports.
//
// Every configuration of a section runs the same universe slice and is
// parity-checked against the section's first configuration, the serial
// run_campaign reference; the early-abort configs are checked for
// verdicts against it and for ops against the section's first abort
// config, the abort-aware run_campaign, which pins the engines'
// analytic per-lane abort accounting.  A divergence aborts the bench.
// Each section also reports packed_fraction — the share of faults the
// most-packed configuration routed onto the packed lanes; with
// universal packing this is 1.0 for every universe family the bench
// runs, and scripts/check_bench_baseline.py --packed-full enforces
// exactly that.
//
// Flags: --quick caps every universe for smoke runs; --threads N pins
// the worker count (equivalent to PRT_THREADS=N in the environment).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_suite.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace prt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Short git revision of the working tree, "unknown" outside a repo —
/// stamps every report so BENCH_history.jsonl lines map to commits.
std::string git_revision() {
  std::string rev = "unknown";
  if (FILE* pipe = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, pipe)) {
      rev.assign(buf);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
      if (rev.empty()) rev = "unknown";
    }
    pclose(pipe);
  }
  return rev;
}

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Caps a universe by stride-sampling so the fault-family mix of the
/// full universe is preserved — a plain resize() would keep only the
/// leading single-cell faults and silently turn a mixed section into
/// a fully lane-compatible one.
std::vector<mem::Fault> cap_universe(std::vector<mem::Fault> universe,
                                     std::size_t cap) {
  if (universe.size() <= cap) return universe;
  std::vector<mem::Fault> sampled;
  sampled.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    sampled.push_back(universe[i * universe.size() / cap]);
  }
  return sampled;
}

struct ConfigTiming {
  std::string name;
  double seconds = 0;
  std::uint64_t ops = 0;
  double coverage = 0;
};

struct SectionReport {
  std::string universe;
  std::string scheme;
  mem::Addr n = 0;
  std::size_t faults = 0;
  std::vector<ConfigTiming> configs;
  /// Suite sections only: wall clock of the sequential per-point
  /// engines (each compiling its own golden artifacts, the pre-suite
  /// sweep cost) over the one CampaignSuite call; 0 elsewhere.
  double suite_vs_sequential = 0;
  /// Share of this section's faults that rode a packed lane batch in
  /// the most-packed configuration (max over configs of
  /// packed_faults / total).  1.0 means zero scalar fallbacks.
  double packed_fraction = 0;
  [[nodiscard]] double speedup_vs_baseline(std::size_t idx) const {
    return configs[idx].seconds > 0
               ? configs[0].seconds / configs[idx].seconds
               : 0.0;
  }
};

class SectionRunner {
 public:
  SectionRunner(SectionReport& report,
                std::span<const mem::Fault> universe,
                const analysis::CampaignOptions& opt)
      : report_(report), universe_(universe), opt_(opt) {
    std::printf("%s universe, n = %u, %zu faults, %s\n",
                report_.universe.c_str(), report_.n, universe_.size(),
                report_.scheme.c_str());
  }

  template <typename Run>
  void record(const std::string& name, Run&& run, bool ops_exempt = false) {
    const auto start = Clock::now();
    const analysis::CampaignResult r = run();
    const double secs = seconds_since(start);
    bool parity = true;
    if (report_.configs.empty()) {
      reference_ = r;
    } else {
      parity = r.overall == reference_.overall &&
               r.by_class == reference_.by_class &&
               r.escapes == reference_.escapes &&
               (ops_exempt || r.ops == reference_.ops);
    }
    if (ops_exempt) {
      // All abort configs of a section must agree on the shrunk op
      // count — the packed per-lane accounting reproduces the
      // abort-aware reference exactly.
      if (abort_ops_ == 0) {
        abort_ops_ = r.ops;
      } else if (r.ops != abort_ops_) {
        parity = false;
      }
    }
    if (!parity) {
      std::fprintf(stderr, "PARITY VIOLATION in config %s at n=%u\n",
                   name.c_str(), report_.n);
      std::exit(1);
    }
    if (r.overall.total > 0) {
      const double fraction = static_cast<double>(r.packed_faults) /
                              static_cast<double>(r.overall.total);
      if (fraction > report_.packed_fraction) {
        report_.packed_fraction = fraction;
      }
    }
    report_.configs.push_back({name, secs, r.ops, r.overall.percent()});
    std::printf("  %-30s %8.3f s   %12llu ops   %6.2f %% coverage\n",
                name.c_str(), secs,
                static_cast<unsigned long long>(r.ops), r.overall.percent());
  }

  void finish() {
    for (std::size_t i = 0; i < report_.configs.size(); ++i) {
      std::printf("  %-30s %.2fx vs %s\n", report_.configs[i].name.c_str(),
                  report_.speedup_vs_baseline(i),
                  report_.configs[0].name.c_str());
    }
    std::printf("\n");
  }

 private:
  SectionReport& report_;
  std::span<const mem::Fault> universe_;
  analysis::CampaignOptions opt_;
  analysis::CampaignResult reference_;
  std::uint64_t abort_ops_ = 0;
};

/// run_prt with early abort over an oracle built once: the abort-aware
/// live reference the engines' per-lane abort ops must equal.
analysis::TestAlgorithm prt_abort_algorithm(const core::PrtScheme& scheme,
                                            mem::Addr n) {
  return [&scheme, oracle = core::make_prt_oracle(scheme, n)](
             mem::Memory& memory) {
    return core::run_prt(memory, scheme, oracle,
                         {.early_abort = true, .record_iterations = false})
        .detected();
  };
}

/// run_march_backgrounds stopping at the first mismatching read.
analysis::TestAlgorithm march_abort_algorithm(const march::MarchTest& test) {
  return [&test](mem::Memory& memory) {
    return march::run_march_backgrounds(
               test, memory, march::standard_backgrounds(memory.width()),
               {.early_abort = true})
        .fail;
  };
}

/// The ladder every single-point section runs: the serial reference,
/// the engine, then the abort-aware serial reference (first among the
/// abort configs, so the runner pins the engine's abort ops to it) and
/// the early-abort engine.  `engine(early_abort)` runs the campaign.
template <typename Engine>
void run_ladder(SectionRunner& run, std::span<const mem::Fault> universe,
                const analysis::CampaignOptions& opt,
                const analysis::TestAlgorithm& reference,
                const analysis::TestAlgorithm& abort_reference,
                Engine&& engine) {
  run.record("serial (run_campaign)",
             [&] { return analysis::run_campaign(universe, reference, opt); });
  run.record("engine", [&] { return engine(false); });
  run.record(
      "serial+abort (run_campaign)",
      [&] { return analysis::run_campaign(universe, abort_reference, opt); },
      /*ops_exempt=*/true);
  run.record("engine+abort", [&] { return engine(true); },
             /*ops_exempt=*/true);
  run.finish();
}

/// One PRT section: `universe` under `scheme` through the ladder.
SectionReport bench_prt(const std::string& name,
                        std::span<const mem::Fault> universe,
                        const core::PrtScheme& scheme,
                        const analysis::CampaignOptions& opt) {
  SectionReport report;
  report.universe = name;
  report.scheme = scheme.name;
  report.n = opt.n;
  report.faults = universe.size();
  SectionRunner run(report, universe, opt);
  run_ladder(run, universe, opt, analysis::prt_algorithm(scheme),
             prt_abort_algorithm(scheme, opt.n), [&](bool early_abort) {
               return analysis::run_prt_campaign(
                   universe, scheme, opt, {.early_abort = early_abort});
             });
  return report;
}

/// Classical universe: every fault family — coupling, bridges and the
/// decoder kinds included — rides the lanes.
SectionReport bench_classical(mem::Addr n, std::size_t fault_cap) {
  const auto universe = cap_universe(mem::classical_universe(n), fault_cap);
  return bench_prt("classical", universe, core::extended_scheme_bom(n),
                   {.n = n});
}

/// Lane-compatible universe: every fault is packable, so the engine
/// shows the undiluted lane-packing gain over the serial reference.
SectionReport bench_lane_compatible(mem::Addr n, const core::PrtScheme& scheme,
                                    std::size_t fault_cap) {
  const auto universe =
      cap_universe(mem::single_cell_universe(n, 1, /*read_logic=*/true),
                   fault_cap);
  return bench_prt("single-cell (lane-compatible)", universe, scheme,
                   {.n = n});
}

/// March campaign over the classical universe.
SectionReport bench_march(mem::Addr n, std::size_t fault_cap) {
  const auto universe = cap_universe(mem::classical_universe(n), fault_cap);
  const auto test = march::march_c_minus();
  const analysis::CampaignOptions opt{.n = n};

  SectionReport report;
  report.universe = "classical (March)";
  report.scheme = test.name;
  report.n = n;
  report.faults = universe.size();
  SectionRunner run(report, universe, opt);
  run_ladder(run, universe, opt, analysis::march_algorithm(test),
             march_abort_algorithm(test), [&](bool early_abort) {
               return analysis::run_march_campaign(
                   universe, test, opt, {.early_abort = early_abort});
             });
  return report;
}

/// Word-oriented universe: every fault lives on one of m = 4 bit
/// planes, the scheme runs over GF(16).  The packed lanes carry one
/// bit plane per field bit and feed back through the transcript's
/// compiled tap matrices.
SectionReport bench_wom(mem::Addr n, std::size_t fault_cap) {
  const unsigned m = 4;
  const auto universe = cap_universe(
      mem::single_cell_universe(n, m, /*read_logic=*/true), fault_cap);
  return bench_prt("single-cell (WOM m=4)", universe,
                   core::extended_scheme_wom(n, m), {.n = n, .m = m});
}

/// Static-NPSF grid universe: two representative neighbourhood
/// patterns per interior cell of a cols-wide grid.  Each packed lane
/// evaluates its 4-cell trigger bit-parallel over the neighbour lane
/// words, so the whole family rides the lanes.
SectionReport bench_npsf(mem::Addr n, mem::Addr grid_cols,
                         std::size_t fault_cap) {
  mem::UniverseOptions uopt;
  uopt.single_cell = false;
  uopt.coupling = false;
  uopt.bridges = false;
  uopt.address_decoder = false;
  uopt.npsf = true;
  uopt.npsf_grid_cols = grid_cols;
  const auto universe = cap_universe(mem::make_universe(n, 1, uopt), fault_cap);
  return bench_prt("npsf (grid)", universe, core::extended_scheme_bom(n),
                   {.n = n});
}

/// Retention universe under a pause-tick scheme: delays straddle the
/// pause length, so some lanes decay at the first pause, some later,
/// some never.  The packed lanes decay analytically from pause-
/// boundary checkpoints instead of per-access scans.
SectionReport bench_retention(mem::Addr n, std::size_t fault_cap) {
  constexpr std::uint64_t kPauseTicks = 1000;
  constexpr std::uint64_t kDelays[] = {200, 900, 1500, 5000, 1'000'000'000};
  std::vector<mem::Fault> universe;
  universe.reserve(static_cast<std::size_t>(n) * 2);
  for (mem::Addr c = 0; c < n; ++c) {
    universe.push_back(mem::Fault::retention(
        {c, 0}, static_cast<unsigned>(c & 1), kDelays[c % 5]));
    universe.push_back(mem::Fault::retention(
        {c, 0}, static_cast<unsigned>(1 - (c & 1)), kDelays[(c + 2) % 5]));
  }
  universe = cap_universe(std::move(universe), fault_cap);
  return bench_prt("retention (pause)", universe,
                   core::retention_scheme(n, 1, kPauseTicks), {.n = n});
}

/// Dual-port classical universe: the scalar reference simulates both
/// ports' sense-amp state while the PRT engines drive port 0 only, so
/// the packed lanes stay bit-identical (open ROADMAP item: grow the
/// campaign bench to multi-port schemes).
SectionReport bench_multiport(mem::Addr n, unsigned ports,
                              std::size_t fault_cap) {
  const auto universe = cap_universe(mem::classical_universe(n), fault_cap);
  return bench_prt("classical (" + std::to_string(ports) + "-port)", universe,
                   core::extended_scheme_bom(n), {.n = n, .ports = ports});
}

/// Measured multicore scaling: the same lane-compatible universe swept
/// over thread counts {1, 2, 4, 8} on the fixed-batch executor.
/// Every cell is parity-checked against the serial reference, so
/// the sweep demonstrates bit-identical output at any thread count
/// while the timings show how much of it the hardware turns into
/// throughput (the speedup curve is only meaningful on a multi-core
/// runner; CI's bench smoke records it per run).
SectionReport bench_scaling(mem::Addr n, std::size_t fault_cap) {
  const auto universe = cap_universe(
      mem::single_cell_universe(n, 1, /*read_logic=*/true), fault_cap);
  const auto scheme = core::standard_scheme_bom(n);
  analysis::CampaignOptions opt;
  opt.n = n;

  SectionReport report;
  report.universe = "scaling (threads)";
  report.scheme = scheme.name;
  report.n = n;
  report.faults = universe.size();
  SectionRunner run(report, universe, opt);
  run.record("serial (run_campaign)", [&] {
    return analysis::run_campaign(universe, analysis::prt_algorithm(scheme),
                                  opt);
  });
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    analysis::EngineOptions eng;
    eng.threads = threads;
    char name[8];
    std::snprintf(name, sizeof name, "t%u", threads);
    run.record(name, [&] {
      return analysis::run_prt_campaign(universe, scheme, opt, eng);
    });
  }
  run.finish();
  return report;
}

/// Multi-configuration suite over the paper's sweep shape (classical
/// universes, n {256, 1024, 4096} x ports {1, 2, 4}; the oracle and
/// transcript depend on (scheme, n) only, so the three port points of
/// each n share one compile).  The same nine-point grid runs three
/// ways, every per-point result parity-checked against the serial
/// run_campaign reference over the same grid:
///
///   * "engines sequential (cold)" — one standalone engine per point,
///     the golden-artifact cache cleared before each, reproducing the
///     pre-suite sweep cost (every engine compiles its own oracle and
///     transcript, nine compiles for the nine points);
///   * "engines sequential (cached)" — the same engines sharing the
///     process-wide OracleCache (three compiles, sequential runs);
///   * "suite (one call)" — one CampaignSuite::run over the grid:
///     (config x batch) tasks flattened, three compiles.
///
/// The headline suite_vs_sequential ratio is cold-engines over suite —
/// the cost a sweep paid before this subsystem existed vs. one call.
SectionReport bench_suite(std::size_t fault_cap) {
  std::vector<analysis::CampaignOptions> grid;
  for (const mem::Addr n : {256u, 1024u, 4096u}) {
    for (const unsigned ports : {1u, 2u, 4u}) {
      grid.push_back({.n = n, .m = 1, .ports = ports});
    }
  }
  std::vector<std::vector<mem::Fault>> universes;
  std::size_t total_faults = 0;
  for (const auto& opt : grid) {
    universes.push_back(cap_universe(mem::classical_universe(opt.n), fault_cap));
    total_faults += universes.back().size();
  }
  auto universe_for = [&](const analysis::CampaignOptions&, std::size_t i) {
    return universes[i];
  };
  auto factory = [](const analysis::CampaignOptions& opt) {
    return core::extended_scheme_bom(opt.n);
  };

  SectionReport report;
  report.universe = "classical (suite n x ports)";
  report.scheme = factory(grid[0]).name;
  report.faults = total_faults;
  std::printf("%s, %zu grid points, %zu faults, %s\n",
              report.universe.c_str(), grid.size(), total_faults,
              report.scheme.c_str());

  auto record = [&](const std::string& name, double secs,
                    const std::vector<analysis::CampaignResult>& results,
                    const std::vector<analysis::CampaignResult>& reference) {
    analysis::ClassCoverage overall;
    std::uint64_t ops = 0;
    std::uint64_t packed_faults = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      // Verdicts and ops only: the serial reference tallies every fault
      // scalar, the engines pack.
      if (!reference.empty() &&
          !(results[i].overall == reference[i].overall &&
            results[i].by_class == reference[i].by_class &&
            results[i].escapes == reference[i].escapes &&
            results[i].ops == reference[i].ops)) {
        std::fprintf(stderr,
                     "PARITY VIOLATION in suite config %s at grid point %zu\n",
                     name.c_str(), i);
        std::exit(1);
      }
      overall.detected += results[i].overall.detected;
      overall.total += results[i].overall.total;
      ops += results[i].ops;
      packed_faults += results[i].packed_faults;
    }
    if (overall.total > 0) {
      const double fraction = static_cast<double>(packed_faults) /
                              static_cast<double>(overall.total);
      if (fraction > report.packed_fraction) {
        report.packed_fraction = fraction;
      }
    }
    report.configs.push_back({name, secs, ops, overall.percent()});
    std::printf("  %-30s %8.3f s   %12llu ops   %6.2f %% coverage\n",
                name.c_str(), secs, static_cast<unsigned long long>(ops),
                overall.percent());
  };

  // The serial reference, point by point.
  auto t0 = Clock::now();
  std::vector<analysis::CampaignResult> reference;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    reference.push_back(analysis::run_campaign(
        universes[i], analysis::prt_algorithm(factory(grid[i])), grid[i]));
  }
  record("serial (run_campaign)", seconds_since(t0), reference, {});

  // Sequential per-point engines, cold golden artifacts per engine.
  t0 = Clock::now();
  std::vector<analysis::CampaignResult> cold;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    analysis::OracleCache::global().clear();
    cold.push_back(
        analysis::run_prt_campaign(universes[i], factory(grid[i]), grid[i]));
  }
  const double secs_cold = seconds_since(t0);
  record("engines sequential (cold)", secs_cold, cold, reference);

  // Sequential engines sharing the process-wide cache.
  analysis::OracleCache::global().clear();
  t0 = Clock::now();
  std::vector<analysis::CampaignResult> cached;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    cached.push_back(
        analysis::run_prt_campaign(universes[i], factory(grid[i]), grid[i]));
  }
  const double secs_cached = seconds_since(t0);
  record("engines sequential (cached)", secs_cached, cached, reference);

  // One suite call over the whole grid.
  analysis::OracleCache::global().clear();
  t0 = Clock::now();
  const analysis::SuiteResult suite =
      analysis::run_prt_suite(grid, factory, universe_for);
  const double secs_suite = seconds_since(t0);
  std::vector<analysis::CampaignResult> suite_results;
  for (const auto& entry : suite.configs) suite_results.push_back(entry.result);
  record("suite (one call)", secs_suite, suite_results, reference);

  if (secs_suite > 0) {
    report.suite_vs_sequential = secs_cold / secs_suite;
    std::printf("  suite vs sequential: %.2fx cold, %.2fx cached\n",
                report.suite_vs_sequential,
                secs_cached > 0 ? secs_cached / secs_suite : 0.0);
  }
  std::printf("%s\n", suite.table().str().c_str());
  return report;
}

void write_report(std::ostream& out, const std::vector<SectionReport>& reports,
                  const std::string& rev, const std::string& utc,
                  unsigned hardware_threads, unsigned workers, bool pretty) {
  // Field separator: newline-indented in pretty mode, a single space
  // in compact mode — never a trailing space before a newline.
  const char* nl = pretty ? "\n" : "";
  const char* sp = pretty ? "" : " ";
  auto indent = [&](int level) {
    return pretty ? std::string(static_cast<std::size_t>(level) * 2, ' ')
                  : std::string();
  };
  out << "{" << nl << indent(1) << "\"bench\": \"campaign\"," << sp << nl
      << indent(1) << "\"rev\": \"" << rev << "\"," << sp << nl << indent(1)
      << "\"utc\": \"" << utc << "\"," << sp << nl << indent(1)
      << "\"hardware_concurrency\": " << hardware_threads << "," << sp << nl
      << indent(1) << "\"threads\": " << workers << "," << sp << nl
      << indent(1) << "\"sections\": [" << nl;
  for (std::size_t s = 0; s < reports.size(); ++s) {
    const SectionReport& r = reports[s];
    out << indent(2) << "{" << nl << indent(3) << "\"universe\": \""
        << r.universe << "\"," << sp << nl << indent(3) << "\"scheme\": \""
        << r.scheme << "\"," << sp << nl << indent(3) << "\"n\": " << r.n
        << "," << sp << nl << indent(3) << "\"faults\": " << r.faults << ","
        << sp << nl << indent(3)
        << "\"suite_vs_sequential\": " << r.suite_vs_sequential << "," << sp
        << nl << indent(3) << "\"packed_fraction\": " << r.packed_fraction
        << "," << sp << nl << indent(3) << "\"configs\": [" << nl;
    for (std::size_t c = 0; c < r.configs.size(); ++c) {
      const ConfigTiming& t = r.configs[c];
      out << indent(4) << "{\"name\": \"" << t.name
          << "\", \"seconds\": " << t.seconds << ", \"ops\": " << t.ops
          << ", \"coverage\": " << t.coverage
          << ", \"speedup_vs_baseline\": " << r.speedup_vs_baseline(c) << "}"
          << (c + 1 < r.configs.size() ? "," : "") << nl;
    }
    out << indent(3) << "]" << nl << indent(2) << "}"
        << (s + 1 < reports.size() ? "," : "") << nl;
  }
  out << indent(1) << "]" << nl << "}" << (pretty ? "\n" : "");
}

}  // namespace

int main(int argc, char** argv) {
  // --quick caps every universe for smoke runs (CI, 1-core boxes);
  // --threads N pins the worker count for reproducible timings.
  std::size_t cap_small = static_cast<std::size_t>(-1);
  std::size_t cap_large = 4096;
  std::size_t cap_lane = 16384;
  // The suite sweep runs 9 grid points, so its per-point cap is
  // tighter than the single-point sections'.
  std::size_t cap_suite = 2048;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      cap_small = 512;
      cap_large = 512;
      cap_lane = 512;
      cap_suite = 128;
    } else if (arg == "--threads" && i + 1 < argc) {
      // Same effect as PRT_THREADS=N: every pool sized 0 picks it up.
      // Validated here so a typo cannot silently record an unpinned
      // run into the perf trajectory.
      const char* value = argv[++i];
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(value, &end, 10);
      if (end == value || *end != '\0' || parsed < 1 || parsed > 4096) {
        std::fprintf(stderr, "--threads expects an integer in [1, 4096], got '%s'\n",
                     value);
        return 2;
      }
      setenv("PRT_THREADS", value, /*overwrite=*/1);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--threads N]\n", argv[0]);
      return 2;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned workers = util::default_worker_count();
  const std::string rev = git_revision();
  const std::string utc = utc_timestamp();
  std::printf(
      "campaign engine bench — rev %s, %u hardware thread(s), %u worker(s)\n\n",
      rev.c_str(), hw, workers);
  std::vector<SectionReport> reports;
  reports.push_back(bench_classical(256, cap_small));
  reports.push_back(bench_classical(1024, cap_small));
  reports.push_back(bench_classical(4096, cap_large));
  reports.push_back(
      bench_lane_compatible(1024, core::extended_scheme_bom(1024), cap_small));
  reports.push_back(
      bench_lane_compatible(4096, core::standard_scheme_bom(4096), cap_lane));
  reports.push_back(bench_scaling(1024, cap_small));
  reports.push_back(bench_march(1024, cap_small));
  reports.push_back(bench_march(4096, cap_large));
  reports.push_back(bench_wom(256, cap_small));
  reports.push_back(bench_npsf(1024, /*grid_cols=*/32, cap_small));
  reports.push_back(bench_retention(1024, cap_small));
  reports.push_back(bench_multiport(1024, /*ports=*/2, cap_small));
  // Last: the suite sweep clears the process-wide oracle cache for its
  // cold-vs-shared comparison, so it must not warm (or drain) any
  // other section's artifacts mid-measurement.
  reports.push_back(bench_suite(cap_suite));
  {
    std::ofstream out("BENCH_campaign.json");
    write_report(out, reports, rev, utc, hw, workers, /*pretty=*/true);
  }
  {
    // One compact line per run — the cross-PR perf trajectory.
    std::ofstream hist("BENCH_history.jsonl", std::ios::app);
    write_report(hist, reports, rev, utc, hw, workers, /*pretty=*/false);
    hist << "\n";
  }
  std::printf("wrote BENCH_campaign.json, appended BENCH_history.jsonl\n");
  return 0;
}
