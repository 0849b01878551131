// Greedy TDB (test data background) designer.
//
// §3 lists three controllable factors — LFSR structure, initial values
// and trajectory.  This module searches that space for a scheme of S
// iterations maximizing fault coverage on a given universe, by greedy
// forward selection: each added iteration maximizes the number of
// *additional* faults detected.  It both reconstructs the paper's
// "specific TDB" result (3 iterations reaching full coverage of the
// targeted universe) and powers the bist_designer example.  Every
// trial scheme is scored by one run_prt_campaign call on the shared
// campaign pool, so a search is as fast as the engines and inherits
// their pool contract.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/fault_sim.hpp"
#include "core/prt_engine.hpp"

namespace prt::analysis {

/// One candidate iteration (structure + TDB).
using Candidate = core::SchemeIteration;

/// The default candidate pool for degree-2 generators over the field:
/// the two-term g = 1+x^2 with solid/checkerboard seeds and the given
/// primitive g with phase seeds, each in ascending and descending
/// trajectories.  Candidates may be selected repeatedly (a repeated
/// solid pass is how write-disturb faults get activated).
[[nodiscard]] std::vector<Candidate> default_candidates(
    const gf::GF2m& field, std::vector<gf::Elem> primitive_g);

struct SearchResult {
  core::PrtScheme scheme;
  /// Coverage (overall percent) after 1, 2, ..., S iterations.
  std::vector<double> coverage_by_iterations;
  /// Escapes remaining after the full scheme (universe indices).
  std::vector<std::size_t> escapes;
};

/// Greedy forward selection of `iterations` scheme steps from the
/// candidate pool, evaluated against `universe` on an (n, m) memory;
/// ties go to the earlier candidate.  Each trial runs as a
/// CampaignEngine campaign with default EngineOptions, so, like
/// CampaignEngine::run, search_tdb must not be called from a task
/// already running on a campaign pool.  Throws std::invalid_argument
/// on an empty pool, on zero iterations, and on options or candidates
/// the engine rejects (validate_campaign_options,
/// core::validate_prt_scheme).
[[nodiscard]] SearchResult search_tdb(
    const gf::GF2m& field, const std::vector<Candidate>& pool,
    std::span<const mem::Fault> universe, const CampaignOptions& opt,
    unsigned iterations);

}  // namespace prt::analysis
