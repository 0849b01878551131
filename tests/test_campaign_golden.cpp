// Golden pins for the campaign surfaces.  One table of thirteen
// sections — classical universes at three sizes, lane-compatible
// single-cell universes, a thread-scaling row, March C- on bit- and
// word-oriented memories, a word-oriented GF(16) scheme, an NPSF grid,
// retention under pauses and a suite over three sizes — each
// stride-sampled to 512 faults (128 per suite point) so every fault
// family of the full universe stays in the slice.
//
// Per section, run_campaign over the live scalar reference
// (tests/live_reference.hpp) runs once without and once with early
// abort; its fault, detection, op and abort-op totals are pinned.
// Every engine configuration must then reproduce it at 1 and 2 threads
// (the scaling row at 1, 2, 4 and 8): verdicts, escapes and ops equal
// to the reference, and abort ops equal to the abort-aware reference.
// The suite row runs its grid as per-point engines on a cleared oracle
// cache, again on the warm cache, and as one CampaignSuite call.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/campaign_engine.hpp"
#include "analysis/campaign_suite.hpp"
#include "analysis/march_campaign.hpp"
#include "analysis/oracle_cache.hpp"
#include "core/prt_engine.hpp"
#include "live_reference.hpp"
#include "march/march_library.hpp"
#include "mem/fault_universe.hpp"

namespace prt::analysis {
namespace {

/// Reference totals over a section's points, captured from run_campaign
/// over the live reference.
struct Pins {
  std::uint64_t faults = 0;
  std::uint64_t detected = 0;
  std::uint64_t ops = 0;
  std::uint64_t abort_ops = 0;
  bool operator==(const Pins&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pins& p) {
  return os << "{faults " << p.faults << ", detected " << p.detected
            << ", ops " << p.ops << ", abort_ops " << p.abort_ops << "}";
}

using UniverseFn = std::function<std::vector<mem::Fault>(mem::Addr n)>;

struct Section {
  const char* id = "";
  /// One point for a single-configuration section, the n grid for the
  /// suite row (the only row with several points).
  std::vector<CampaignOptions> points;
  UniverseFn universe;
  /// Faults kept per point, by stride sampling.
  std::size_t cap = 512;
  /// The PRT scheme per point; empty for the March sections.
  SchemeFactory scheme{};
  std::optional<march::MarchTest> test{};
  std::vector<unsigned> threads = {1, 2};
  Pins pins;
};

void PrintTo(const Section& s, std::ostream* os) { *os << s.id; }

/// Keeps `cap` faults at an even stride so the fault-family mix of the
/// full universe survives (a plain resize would keep only the leading
/// single-cell faults).
std::vector<mem::Fault> sampled(const std::vector<mem::Fault>& universe,
                                std::size_t cap) {
  if (universe.size() <= cap) return universe;
  std::vector<mem::Fault> out;
  out.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    out.push_back(universe[i * universe.size() / cap]);
  }
  return out;
}

std::vector<mem::Fault> classical(mem::Addr n) {
  return mem::classical_universe(n);
}

std::vector<mem::Fault> lane_compatible(mem::Addr n) {
  return mem::single_cell_universe(n, 1, /*read_logic=*/true);
}

std::vector<mem::Fault> wom(mem::Addr n) {
  return mem::single_cell_universe(n, 4, /*read_logic=*/true);
}

/// Static NPSF only: two neighbourhood patterns per interior cell of a
/// 32-column grid.
std::vector<mem::Fault> npsf(mem::Addr n) {
  mem::UniverseOptions u;
  u.single_cell = false;
  u.coupling = false;
  u.bridges = false;
  u.address_decoder = false;
  u.npsf = true;
  u.npsf_grid_cols = 32;
  return mem::make_universe(n, 1, u);
}

constexpr std::uint64_t kPauseTicks = 1000;

/// Two retention faults per cell with delays straddling the pause, so
/// some decay at the first pause, some later and some never.
std::vector<mem::Fault> retention(mem::Addr n) {
  constexpr std::uint64_t kDelays[] = {200, 900, 1500, 5000, 1'000'000'000};
  std::vector<mem::Fault> out;
  for (mem::Addr c = 0; c < n; ++c) {
    out.push_back(mem::Fault::retention({c, 0}, static_cast<unsigned>(c & 1),
                                        kDelays[c % 5]));
    out.push_back(mem::Fault::retention(
        {c, 0}, static_cast<unsigned>(1 - (c & 1)), kDelays[(c + 2) % 5]));
  }
  return out;
}

core::PrtScheme extended(const CampaignOptions& opt) {
  return opt.m == 1 ? core::extended_scheme_bom(opt.n)
                    : core::extended_scheme_wom(opt.n, opt.m);
}

core::PrtScheme standard(const CampaignOptions& opt) {
  return core::standard_scheme_bom(opt.n);
}

core::PrtScheme paused(const CampaignOptions& opt) {
  return core::retention_scheme(opt.n, opt.m, kPauseTicks);
}

std::vector<Section> sections() {
  return {
      {.id = "classical_n256",
       .points = {{.n = 256}},
       .universe = classical,
       .scheme = extended,
       .pins = {512, 512, 9437184, 1589248}},
      {.id = "classical_n1024",
       .points = {{.n = 1024}},
       .universe = classical,
       .scheme = extended,
       .pins = {512, 512, 37748736, 5468160}},
      {.id = "classical_n4096",
       .points = {{.n = 4096}},
       .universe = classical,
       .scheme = extended,
       .pins = {512, 512, 150994944, 21872640}},
      {.id = "lane_compatible_ext_n1024",
       .points = {{.n = 1024}},
       .universe = lane_compatible,
       .scheme = extended,
       .pins = {512, 512, 37748736, 4194304}},
      {.id = "lane_compatible_prt3_n4096",
       .points = {{.n = 4096}},
       .universe = lane_compatible,
       .scheme = standard,
       .pins = {512, 512, 18874368, 6291456}},
      {.id = "scaling_n1024",
       .points = {{.n = 1024}},
       .universe = lane_compatible,
       .scheme = standard,
       .threads = {1, 2, 4, 8},
       .pins = {512, 512, 4718592, 1572864}},
      {.id = "march_c_minus_n1024",
       .points = {{.n = 1024}},
       .universe = classical,
       .test = march::march_c_minus(),
       .pins = {512, 512, 5242880, 2403278}},
      {.id = "march_c_minus_n4096",
       .points = {{.n = 4096}},
       .universe = classical,
       .test = march::march_c_minus(),
       .pins = {512, 512, 20971520, 9613112}},
      // The word-oriented March row of tab_fault_coverage: four bit
      // planes, three data backgrounds.
      {.id = "march_c_minus_wom_m4_n256",
       .points = {{.n = 256, .m = 4}},
       .universe = wom,
       .test = march::march_c_minus(),
       .pins = {512, 512, 3932160, 524288}},
      {.id = "wom_m4_n256",
       .points = {{.n = 256, .m = 4}},
       .universe = wom,
       .scheme = extended,
       .pins = {512, 512, 9437184, 1048576}},
      {.id = "npsf_grid_n1024",
       .points = {{.n = 1024}},
       .universe = npsf,
       .scheme = extended,
       .pins = {512, 512, 37748736, 3145728}},
      {.id = "retention_pause_n1024",
       .points = {{.n = 1024}},
       .universe = retention,
       .scheme = paused,
       .pins = {512, 308, 4194304, 2932736}},
      {.id = "suite_n_grid",
       .points = {{.n = 256}, {.n = 1024}, {.n = 4096}},
       .universe = classical,
       .cap = 128,
       .scheme = extended,
       .pins = {384, 384, 49545216, 7139328}},
  };
}

TestAlgorithm live_reference(const Section& s, const CampaignOptions& opt,
                             bool early_abort) {
  return s.test ? testref::live_march(*s.test, early_abort)
                : testref::live_prt(s.scheme(opt), early_abort);
}

std::vector<CampaignResult> run_engines(
    const Section& s, const std::vector<std::vector<mem::Fault>>& universes,
    const EngineOptions& engine, bool cold_cache) {
  std::vector<CampaignResult> out;
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    if (cold_cache) OracleCache::global().clear();
    const CampaignOptions& opt = s.points[i];
    out.push_back(s.test ? run_march_campaign(universes[i], *s.test, opt, engine)
                         : run_prt_campaign(universes[i], s.scheme(opt), opt,
                                            engine));
  }
  return out;
}

std::vector<CampaignResult> run_suite(
    const Section& s, const std::vector<std::vector<mem::Fault>>& universes,
    const EngineOptions& engine) {
  OracleCache::global().clear();
  const SuiteResult suite = run_prt_suite(
      s.points, s.scheme,
      [&](const CampaignOptions&, std::size_t i) { return universes[i]; },
      engine);
  std::vector<CampaignResult> out;
  for (const SuiteConfigResult& config : suite.configs) {
    out.push_back(config.result);
  }
  return out;
}

void expect_same_verdicts(const CampaignResult& got,
                          const CampaignResult& want) {
  EXPECT_EQ(got.by_class, want.by_class);
  EXPECT_EQ(got.overall, want.overall);
  EXPECT_EQ(got.escapes, want.escapes);
}

/// Verdicts against the reference, ops against `ops_reference` (the
/// abort-aware one for early-abort runs).
void expect_reproduces(const std::vector<CampaignResult>& got,
                       const std::vector<CampaignResult>& reference,
                       const std::vector<CampaignResult>& ops_reference,
                       const char* surface) {
  SCOPED_TRACE(surface);
  ASSERT_EQ(got.size(), reference.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    expect_same_verdicts(got[i], reference[i]);
    EXPECT_EQ(got[i].ops, ops_reference[i].ops);
  }
}

class CampaignGolden : public ::testing::TestWithParam<Section> {};

TEST_P(CampaignGolden, EnginesReproduceThePinnedLiveReference) {
  const Section& s = GetParam();
  std::vector<std::vector<mem::Fault>> universes;
  std::vector<CampaignResult> reference;
  std::vector<CampaignResult> abort_reference;
  Pins got;
  for (const CampaignOptions& opt : s.points) {
    universes.push_back(sampled(s.universe(opt.n), s.cap));
    reference.push_back(run_campaign(universes.back(),
                                     live_reference(s, opt, false), opt));
    abort_reference.push_back(run_campaign(universes.back(),
                                           live_reference(s, opt, true), opt));
    got.faults += universes.back().size();
    got.detected += reference.back().overall.detected;
    got.ops += reference.back().ops;
    got.abort_ops += abort_reference.back().ops;
  }
  EXPECT_EQ(got, s.pins);
  // Early abort changes the cost, never a verdict.
  for (std::size_t i = 0; i < s.points.size(); ++i) {
    expect_same_verdicts(abort_reference[i], reference[i]);
  }

  for (const unsigned threads : s.threads) {
    for (const bool early_abort : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " early_abort=" + std::to_string(early_abort));
      const EngineOptions engine{.threads = threads,
                                 .early_abort = early_abort};
      const auto& ops_reference = early_abort ? abort_reference : reference;
      if (s.points.size() == 1) {
        expect_reproduces(run_engines(s, universes, engine, false), reference,
                          ops_reference, "engine");
        continue;
      }
      expect_reproduces(run_engines(s, universes, engine, true), reference,
                        ops_reference, "engines (cold cache)");
      expect_reproduces(run_engines(s, universes, engine, false), reference,
                        ops_reference, "engines (warm cache)");
      expect_reproduces(run_suite(s, universes, engine), reference,
                        ops_reference, "suite (one call)");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sections, CampaignGolden,
                         ::testing::ValuesIn(sections()),
                         [](const ::testing::TestParamInfo<Section>& p) {
                           return std::string(p.param.id);
                         });

}  // namespace
}  // namespace prt::analysis
