#include "analysis/tdb_search.hpp"

#include <stdexcept>
#include <string>

#include "analysis/campaign_engine.hpp"

namespace prt::analysis {

namespace {

Candidate make_candidate(std::vector<gf::Elem> g, std::vector<gf::Elem> init,
                         core::TrajectoryKind traj) {
  Candidate c;
  c.g = std::move(g);
  c.config.init = std::move(init);
  c.config.trajectory = traj;
  return c;
}

}  // namespace

std::vector<Candidate> default_candidates(const gf::GF2m& field,
                                          std::vector<gf::Elem> primitive_g) {
  const gf::Elem mask = field.size() - 1;
  const std::vector<std::vector<gf::Elem>> generators{
      {1, 0, 1},  // two-term: solid / checkerboard backgrounds
      primitive_g,
  };
  std::vector<Candidate> pool;
  for (const auto& g : generators) {
    // Solid and striped seeds for the two-term generator; phase seeds
    // for the maximal-length one.  (0,0) is included deliberately: a
    // solid-0 pass activates write-disturb faults and provides the
    // "previous value" for down-transitions.
    const std::vector<std::vector<gf::Elem>> seeds =
        g == generators[0]
            ? std::vector<std::vector<gf::Elem>>{{0, mask},
                                                 {mask, 0},
                                                 {mask, mask},
                                                 {0, 0}}
            : std::vector<std::vector<gf::Elem>>{{0, 1}, {1, 0}, {1, 1}};
    for (const auto& seed : seeds) {
      for (auto traj : {core::TrajectoryKind::kAscending,
                        core::TrajectoryKind::kDescending}) {
        pool.push_back(make_candidate(g, seed, traj));
      }
    }
  }
  return pool;
}

SearchResult search_tdb(const gf::GF2m& field,
                        const std::vector<Candidate>& pool,
                        std::span<const mem::Fault> universe,
                        const CampaignOptions& opt, unsigned iterations) {
  if (pool.empty()) {
    throw std::invalid_argument("search_tdb: candidate pool is empty");
  }
  if (iterations < 1) {
    throw std::invalid_argument("search_tdb: iterations must be >= 1 (got " +
                                std::to_string(iterations) + ")");
  }

  SearchResult result;
  result.scheme.field_modulus = field.modulus();
  // Candidates are always scored in context — the trial scheme is the
  // selection so far plus the candidate — because iteration order
  // matters for transition and disturb faults.  Each trial is one
  // engine campaign on the shared pool, hence the header's rule that
  // search_tdb must not run inside a pool task.
  CampaignResult best;
  for (unsigned step = 0; step < iterations; ++step) {
    std::size_t pick = pool.size();
    for (std::size_t c = 0; c < pool.size(); ++c) {
      core::PrtScheme trial = result.scheme;
      trial.iterations.push_back(pool[c]);
      CampaignResult r = run_prt_campaign(universe, trial, opt);
      if (pick == pool.size() || r.overall.detected > best.overall.detected) {
        pick = c;
        best = std::move(r);
      }
    }
    result.scheme.iterations.push_back(pool[pick]);
    result.coverage_by_iterations.push_back(best.overall.percent());
  }
  result.escapes = std::move(best.escapes);
  return result;
}

}  // namespace prt::analysis
