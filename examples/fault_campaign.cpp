// Multi-configuration fault-injection campaign with per-class
// reporting and escape listing — the workflow a test engineer would
// use to qualify a PRT scheme across a whole family of memories.
//
// One CampaignSuite::run call sweeps the scheme over every requested
// memory size: the universe generator is invoked per configuration,
// golden oracles/transcripts come from the shared cache (one compile
// per size), all configurations' fault shards interleave on one worker
// pool, and each configuration's result is bit-identical to a
// standalone engine run.
//
//   $ ./fault_campaign [m] [n1 n2 ...]     (defaults: m = 1, n = 64 256)
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "analysis/campaign_suite.hpp"
#include "mem/fault_universe.hpp"
#include "parse_args.hpp"

int main(int argc, char** argv) {
  using namespace prt;
  using examples::parse_unsigned;
  // The cap keeps a typo from turning into a multi-gigabyte universe
  // allocation.
  constexpr unsigned long kMaxArg = 1UL << 24;
  unsigned long m = 1;
  std::vector<analysis::CampaignOptions> grid;
  if (argc > 1 && !parse_unsigned(argv[1], 1, kMaxArg, m)) {
    std::fprintf(stderr, "usage: %s [m] [n1 n2 ...]\n", argv[0]);
    return 2;
  }
  for (int i = 2; i < argc; ++i) {
    unsigned long n = 0;
    if (!parse_unsigned(argv[i], 1, kMaxArg, n)) {
      std::fprintf(stderr, "usage: %s [m] [n1 n2 ...]\n", argv[0]);
      return 2;
    }
    grid.push_back({.n = static_cast<mem::Addr>(n),
                    .m = static_cast<unsigned>(m)});
  }
  if (grid.empty()) {
    grid = {{.n = 64, .m = static_cast<unsigned>(m)},
            {.n = 256, .m = static_cast<unsigned>(m)}};
  }
  const analysis::SchemeFactory scheme =
      [](const analysis::CampaignOptions& opt) {
        return opt.m == 1 ? core::extended_scheme_bom(opt.n)
                          : core::extended_scheme_wom(opt.n, opt.m);
      };
  // Malformed geometry (m outside the scheme's field, n no larger than
  // the scheme's window) is rejected by the factories and the scheme
  // rule before any campaign runs — report it instead of aborting.
  try {
    for (const analysis::CampaignOptions& opt : grid) {
      analysis::validate_campaign_options(opt);
      core::validate_prt_scheme(scheme(opt), opt.n, opt.m);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\nusage: %s [m] [n1 n2 ...]\n", e.what(), argv[0]);
    return 2;
  }

  // Universes generated once up-front and handed to the suite by grid
  // index: the escape listing below indexes into these same vectors,
  // so it cannot drift from what the suite actually simulated.
  std::vector<std::vector<mem::Fault>> universes;
  for (const analysis::CampaignOptions& opt : grid) {
    mem::UniverseOptions uopt;
    uopt.single_cell = true;
    uopt.read_logic = true;
    uopt.coupling = true;
    uopt.bridges = true;
    uopt.address_decoder = true;
    uopt.intra_word = opt.m > 1;
    uopt.npsf = true;
    uopt.coupling_pair_limit = 2048;  // sample distant pairs
    universes.push_back(mem::make_universe(opt.n, opt.m, uopt));
  }
  const analysis::UniverseGenerator universe =
      [&](const analysis::CampaignOptions&, std::size_t i) {
        return universes[i];
      };

  // One call, the whole sweep: schemes sized per configuration,
  // oracles compiled once per (scheme, n), shards flattened onto one
  // pool.
  const analysis::SuiteResult suite =
      analysis::run_prt_suite(grid, scheme, universe);

  std::printf("%s\n", suite.table().str().c_str());

  for (std::size_t c = 0; c < suite.configs.size(); ++c) {
    const analysis::SuiteConfigResult& entry = suite.configs[c];
    const auto& escapes = entry.result.escapes;
    std::printf("n = %u: %zu escapes\n", entry.options.n, escapes.size());
    const std::size_t show = std::min<std::size_t>(escapes.size(), 10);
    for (std::size_t i = 0; i < show; ++i) {
      std::printf("  %s\n", universes[c][escapes[i]].describe().c_str());
    }
    if (escapes.size() > show) {
      std::printf("  ... and %zu more\n", escapes.size() - show);
    }
  }
  return 0;
}
