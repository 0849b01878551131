// Lane-batched, thread-parallel March fault-simulation campaigns.
//
// Every March coverage table runs here (the paper programs and the
// examples); run_campaign with march_algorithm (fault_sim.hpp) stays
// only as the serial reference, one FaultyRam run per fault, that it
// is checked against.  A March campaign is a CampaignEngine
// (campaign_engine.hpp) built from a March test: the same driver,
// shared pool, shard loops and order-deterministic merge a PRT
// campaign runs on, with only the cached transcript telling the two
// apart (DESIGN.md §22):
//
//  * the golden March run — every standard data background of the
//    m-bit word in turn, on the same memory — is compiled once per
//    (test, n, m) into a flat core::OpTranscript, cached in the
//    process-wide analysis::OracleCache and shared by every campaign
//    over the same test;
//  * every fault (decoder, NPSF and retention kinds included) rides a
//    lane: faults are batched 512 per sweep (64 on a batch thinner
//    than 256 faults) through march::run_march_packed, on the bit loop
//    at m = 1 and on the word loop (m bit planes per cell) above it.
//    The merged CampaignResult — coverage, per-class counts, escapes
//    and op totals — is bit-identical to run_campaign(universe,
//    march_algorithm(test), opt).  Early abort composes with packing:
//    lanes retire at their first mismatching read with analytic
//    per-lane op accounting identical to the abort-aware scalar
//    reference, across backgrounds.
//
// See DESIGN.md §8/§9/§10/§20/§22 and the March rows of
// tests/test_campaign_golden.cpp.
#pragma once

#include <span>

#include "analysis/campaign_engine.hpp"
#include "march/march_test.hpp"

namespace prt::analysis {

/// March campaigns take the same EngineOptions as every campaign type;
/// the alias keeps the older spelling compiling (perfbench/ uses it).
using MarchEngineOptions = EngineOptions;

/// A March campaign is an engine built from a March test; the name
/// stays for the callers that spell it so (perfbench/ among them).
using MarchCampaign = CampaignEngine;

/// Convenience: one-shot March campaign with default engine options.
[[nodiscard]] CampaignResult run_march_campaign(
    std::span<const mem::Fault> universe, const march::MarchTest& test,
    const CampaignOptions& opt, const EngineOptions& engine = {});

}  // namespace prt::analysis
