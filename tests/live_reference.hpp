// The live scalar references the campaign parity tests compare
// against: TestAlgorithms for run_campaign that run the oracle-backed
// core::run_prt or march::run_march_backgrounds on the FaultyRam,
// honouring early abort so the abort-ops checks have a reference too
// (without abort they are exactly prt_algorithm / march_algorithm).
#pragma once

#include <map>
#include <utility>

#include "analysis/fault_sim.hpp"

namespace prt::testref {

/// run_prt(memory, scheme, oracle, {.early_abort}) with the oracle
/// built once per memory size.
inline analysis::TestAlgorithm live_prt(core::PrtScheme scheme,
                                        bool early_abort) {
  if (!early_abort) return analysis::prt_algorithm(std::move(scheme));
  return [scheme = std::move(scheme),
          oracles = std::map<mem::Addr, core::PrtOracle>{}](
             mem::Memory& memory) mutable {
    auto [it, inserted] = oracles.try_emplace(memory.size());
    if (inserted) it->second = core::make_prt_oracle(scheme, memory.size());
    const core::PrtRunOptions run{.early_abort = true,
                                  .record_iterations = false};
    return core::run_prt(memory, scheme, it->second, run).detected();
  };
}

/// run_march_backgrounds over the standard backgrounds of the memory
/// width, stopping at the first mismatching read.
inline analysis::TestAlgorithm live_march(march::MarchTest test,
                                          bool early_abort) {
  if (!early_abort) return analysis::march_algorithm(std::move(test));
  return [test = std::move(test)](mem::Memory& memory) {
    return march::run_march_backgrounds(
               test, memory, march::standard_backgrounds(memory.width()),
               {.early_abort = true})
        .fail;
  };
}

}  // namespace prt::testref
