// Reproduces the §3 analysis claim: "Applying Markov chain analysis it
// was shown that pi-test iteration has a high resolution for most
// memory faults."  The analytic per-iteration detection probabilities
// (analysis/markov, derived under random-TDB / random-trajectory
// assumptions) are compared against an empirical campaign that runs
// randomized pi-iterations — the model and the simulator must agree in
// shape: near-certain static faults, 1/4-rate transition conditions,
// O(1/n) windows for idempotent/inversion coupling.
#include <cstdio>
#include <map>

#include "analysis/fault_sim.hpp"
#include "analysis/markov.hpp"
#include "mem/fault_universe.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace prt;
using analysis::CampaignOptions;

constexpr mem::Addr kN = 64;
constexpr unsigned kTrials = 8;

/// One randomized pi-iteration scheme with `iters` iterations.
core::PrtScheme random_scheme(unsigned iters, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  core::PrtScheme s;
  s.field_modulus = 0b11;
  for (unsigned i = 0; i < iters; ++i) {
    core::SchemeIteration it;
    it.g = {1, 1, 1};
    it.config.init = {static_cast<gf::Elem>(rng.below(2)),
                      static_cast<gf::Elem>(rng.below(2))};
    if (it.config.init[0] == 0 && it.config.init[1] == 0) {
      it.config.init[1] = 1;
    }
    it.config.trajectory = core::TrajectoryKind::kRandom;
    it.config.seed = rng();
    s.iterations.push_back(std::move(it));
  }
  return s;
}

std::vector<mem::Fault> markov_universe() {
  std::vector<mem::Fault> u = mem::single_cell_universe(kN, 1, true);
  const auto pairs = mem::select_pairs(kN, 256, /*seed=*/0xbeef);
  auto cf = mem::coupling_universe(pairs, 0);
  u.insert(u.end(), cf.begin(), cf.end());
  for (std::size_t i = 0; i + 1 < pairs.size(); i += 4) {
    u.push_back(mem::Fault::bridge({pairs[i].first, 0},
                                   {pairs[i].second, 0}, true));
  }
  for (mem::Addr a = 0; a < kN; ++a) {
    u.push_back(mem::Fault::af_wrong_access(a, a + 1 < kN ? a + 1 : kN - 2));
  }
  return u;
}

void print_table() {
  std::printf(
      "== §3 Markov model vs empirical detection (n = %u, %u random "
      "trials) ==\n",
      kN, kTrials);
  const auto universe = markov_universe();
  CampaignOptions opt;
  opt.n = kN;
  analysis::MarkovParams params;
  params.n = kN;
  params.m = 1;

  Table t({"fault class", "model p1", "emp p1", "model P3", "emp P3"});
  t.set_align(0, Align::kLeft);

  // Empirical per-class detection frequency for 1 and 3 iterations.
  std::map<mem::FaultClass, std::pair<double, double>> empirical;
  for (unsigned iters : {1u, 3u}) {
    std::map<mem::FaultClass, std::pair<std::uint64_t, std::uint64_t>> acc;
    for (unsigned trial = 0; trial < kTrials; ++trial) {
      const auto scheme = random_scheme(iters, 1000 + trial);
      const auto r = analysis::run_campaign(
          universe, analysis::prt_algorithm(scheme), opt);
      for (const auto& [cls, cov] : r.by_class) {
        acc[cls].first += cov.detected;
        acc[cls].second += cov.total;
      }
    }
    for (const auto& [cls, pair] : acc) {
      const double rate = static_cast<double>(pair.first) /
                          static_cast<double>(pair.second);
      if (iters == 1) {
        empirical[cls].first = rate;
      } else {
        empirical[cls].second = rate;
      }
    }
  }

  for (const auto& [cls, rates] : empirical) {
    t.add(to_string(cls),
          format_fixed(analysis::per_iteration_detection(cls, params), 4),
          format_fixed(rates.first, 4),
          format_fixed(analysis::cumulative_detection(cls, params, 3), 4),
          format_fixed(rates.second, 4));
  }
  std::printf("%s\n", t.str().c_str());
  std::printf(
      "model assumptions: independent fair-coin backgrounds and fresh\n"
      "random trajectories per iteration; the designed (non-random) TDB\n"
      "of tab_fault_coverage strictly dominates these rates.\n\n");
}

}  // namespace

int main() {
  print_table();
  return 0;
}
