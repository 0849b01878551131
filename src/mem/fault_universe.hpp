// Fault-universe generation for coverage campaigns.
//
// The paper's §3 claim ("all single and multi-cell memory faults are
// detected in 3 pi-test iterations") is evaluated by exhaustively
// enumerating the standard single-cell universe and the two-cell
// coupling universe, plus decoder faults; larger configurations are
// sampled deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "mem/fault.hpp"
#include "util/rng.hpp"

namespace prt::mem {

/// Options shaping the enumerated universe.
struct UniverseOptions {
  bool single_cell = true;     // SAF, TF, WDF
  bool read_logic = true;      // RDF, DRDF, IRF, SOF
  bool coupling = true;        // CFin, CFid, CFst
  bool bridges = true;         // wired-AND/OR
  bool address_decoder = true; // AF x 3 kinds
  bool npsf = false;           // static NPSF (grid memories only)
  /// Enumerate all ordered aggressor/victim cell pairs when
  /// n*(n-1) <= coupling_pair_limit, otherwise sample this many pairs.
  std::uint64_t coupling_pair_limit = 1 << 16;
  /// For word-oriented memories, also generate *intra-word* coupling
  /// faults (aggressor and victim bits inside the same cell).
  bool intra_word = true;
  /// Grid width for NPSF neighbourhoods (0 = square-ish default).  An
  /// explicit width must be >= 2 and divide n into whole rows;
  /// make_universe throws std::invalid_argument (naming the value)
  /// otherwise — a 1-cell-wide grid has no interior victims and a
  /// ragged last row has no south neighbours.
  Addr npsf_grid_cols = 0;
  /// Seed for any sampling.
  std::uint64_t seed = 0x5eedf00dULL;
};

/// Enumerates the fault universe for an n x m memory.  Throws
/// std::invalid_argument naming the value on n < 2, on m outside
/// [1, 32] and on a malformed explicit NPSF grid width (see
/// UniverseOptions::npsf_grid_cols).
[[nodiscard]] std::vector<Fault> make_universe(Addr n, unsigned m,
                                               const UniverseOptions& opt);

/// Single-cell faults only (SAF/TF/WDF + read logic), every cell/bit.
[[nodiscard]] std::vector<Fault> single_cell_universe(Addr n, unsigned m,
                                                      bool read_logic);

/// All inter-cell coupling faults on bit plane 0 for every ordered pair
/// from the given pair list.
[[nodiscard]] std::vector<Fault> coupling_universe(
    const std::vector<std::pair<Addr, Addr>>& pairs, unsigned bit);

/// Deterministic pair selection: exhaustive if small, sampled otherwise.
[[nodiscard]] std::vector<std::pair<Addr, Addr>> select_pairs(
    Addr n, std::uint64_t limit, std::uint64_t seed);

/// The classical fault model the paper's §3 claim is stated over
/// (DESIGN.md §2): SAF, TF, adjacent-cell CFin, adjacent bridges, and
/// no-access / wrong-access decoder faults, on bit plane 0 of a
/// bit-oriented memory.  O(n) faults.  Throws std::invalid_argument
/// naming n when n < 3.
[[nodiscard]] std::vector<Fault> classical_universe(Addr n);

/// The full van de Goor single+two-cell model (DESIGN.md §2): adds
/// WDF, the read-logic faults (RDF/DRDF/IRF/SOF), 4-variant CFst and
/// CFid on adjacent pairs, and multi-access decoder faults.  Still
/// O(n) faults (adjacent pairs only; make_universe enumerates the
/// all-pairs variant).  Throws std::invalid_argument naming n when
/// n < 3.
[[nodiscard]] std::vector<Fault> van_de_goor_universe(Addr n);

}  // namespace prt::mem
