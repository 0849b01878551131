// Multi-iteration pseudo-ring testing.
//
// §3 of the paper: at least 3 pi-test iterations with a specific test
// data background (TDB) detect all targeted single- and multi-cell
// faults.  A PrtScheme bundles the per-iteration LFSR structures and
// TDBs.  The paper's references [2]/[3] with the exact TDB are
// unavailable (DESIGN.md §2), so two schemes are reconstructed and
// validated by exhaustive fault simulation (tests/,
// bench/tab_fault_coverage):
//
//  * `standard_scheme_*` — 3 iterations of the pure O(3n) form, found
//    by exhaustive search over the (generator, seed, trajectory)
//    space: solid-1 ascending, solid-0 descending, checkerboard
//    ascending (all built on the paper-sanctioned two-term generator
//    g = 1 + x^2).  Measured: 100% of SAF, TF, adjacent CFin, bridges
//    and wrong/none decoder faults; CFst partial, CFid/WDF/read-logic
//    partial — see EXPERIMENTS.md for the precise table.
//
//  * `extended_scheme_*` — the longer sequence with per-iteration
//    verify passes that reaches 100% of the full van de Goor model
//    including 4-variant CFid, WDF, RDF/DRDF/IRF/SOF and multi-access
//    decoder faults.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pi_iteration.hpp"

namespace prt::core {

/// One scheme iteration: LFSR structure + TDB.
struct SchemeIteration {
  std::vector<gf::Elem> g;  // generator coefficients g0..gk
  PiConfig config;
};

/// A complete PRT scheme over one field.
struct PrtScheme {
  gf::Poly2 field_modulus = 0b11;  // p(z); default GF(2) = GF(2)[z]/(z+1)
  std::vector<SchemeIteration> iterations;
  /// Optional MISR polynomial (0 = disabled) applied to every
  /// iteration's read stream.
  gf::Poly2 misr_poly = 0;
  std::string name;
};

/// Verdict of a full scheme run.
struct PrtVerdict {
  bool pass = true;        // all iterations matched Fin*
  bool misr_pass = true;   // all MISR signatures matched (if enabled)
  std::vector<PiResult> iterations;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  [[nodiscard]] std::uint64_t ops() const { return reads + writes; }

  /// Detection verdict used by coverage campaigns: the scheme flags the
  /// memory as faulty if any iteration's Fin (or MISR, when enabled)
  /// deviates.
  [[nodiscard]] bool detected() const { return !pass || !misr_pass; }
};

/// Memoized per-scheme oracle: one PiTester and one PiOracle per
/// iteration, built exactly once per (scheme, n) and shared read-only
/// by every fault of a campaign — and, being immutable, by every
/// worker thread (analysis/campaign_engine).
struct PrtOracle {
  mem::Addr n = 0;
  std::vector<PiTester> testers;
  std::vector<PiOracle> iterations;
};

/// The scheme rule every PRT entry point enforces (run_prt without an
/// oracle, analysis::prt_algorithm and every campaign that runs a
/// scheme).  Throws std::invalid_argument, naming the value, unless
/// the field degree equals the word width m (and lies in GF2m's
/// [1, 16]), gf::is_field_modulus(field_modulus) holds, the MISR
/// polynomial is 0 (disabled) or of degree in [1, 63], the scheme has
/// iterations, and every iteration has
/// 1 <= k < n with m * k <= 64 (the oracle's LFSR jump-ahead packs the
/// register into one word), k seeds, non-zero g0 and gk, and every
/// coefficient and seed inside the field.
void validate_prt_scheme(const PrtScheme& scheme, mem::Addr n, unsigned m);

/// Precomputes the oracle for running `scheme` against n-cell memories.
/// Precondition: the scheme passes validate_prt_scheme for n.
[[nodiscard]] PrtOracle make_prt_oracle(const PrtScheme& scheme, mem::Addr n);

/// Structural fingerprint of a scheme: serializes every field the
/// oracle and op-transcript compilation depend on (field modulus, MISR
/// polynomial, per-iteration generator coefficients, seeds, trajectory
/// kind and seed, verify/pause settings).  Two schemes with equal
/// fingerprints compile to identical oracles and transcripts for any
/// n — the (scheme, n) cache-key contract of analysis::OracleCache.
/// The display name is deliberately excluded: a renamed scheme still
/// caches as itself.
[[nodiscard]] std::string scheme_fingerprint(const PrtScheme& scheme);

struct PrtRunOptions {
  /// Stop after the first failing iteration.  The verdict's detected()
  /// is unchanged (a scheme detects iff any iteration fails) but the
  /// skipped iterations issue no memory operations, so read/write
  /// counts no longer reflect a full run — campaigns that only need
  /// verdicts opt in, benches that report op counts must not.
  bool early_abort = false;
  /// Keep the per-iteration PiResults in the verdict.  Campaign hot
  /// loops turn this off to avoid retaining k-sized vectors per
  /// iteration per fault.
  bool record_iterations = true;
};

/// Runs every iteration of the scheme in order, building the oracle
/// for this one run.  Throws std::invalid_argument when the scheme
/// does not fit the memory (validate_prt_scheme).
[[nodiscard]] PrtVerdict run_prt(mem::Memory& memory,
                                 const PrtScheme& scheme);

/// Oracle-backed run: no trajectory/golden-sequence/Fin* re-derivation
/// per call.  Precondition: oracle built by make_prt_oracle(scheme,
/// memory.size()).
[[nodiscard]] PrtVerdict run_prt(mem::Memory& memory,
                                 const PrtScheme& scheme,
                                 const PrtOracle& oracle,
                                 const PrtRunOptions& options = {});

/// The reconstructed 3-iteration TDB for a bit-oriented memory of n
/// cells (field GF(2), k = 2).
[[nodiscard]] PrtScheme standard_scheme_bom(mem::Addr n);

/// The reconstructed 3-iteration TDB for a word-oriented memory:
/// field GF(2^m) over `p` (pass 0 to use the first primitive polynomial
/// of degree m), k = 2.  The extended WOM scheme additionally uses the
/// paper's Fig. 1b generator g(x) = 1 + 2x + 2x^2 when
/// (m, p) = (4, z^4+z+1), else the first primitive quadratic.  Both
/// WOM factories throw std::invalid_argument naming m unless
/// 2 <= m <= 16.
[[nodiscard]] PrtScheme standard_scheme_wom(mem::Addr n, unsigned m,
                                            gf::Poly2 p = 0);

/// The extended PRT scheme: a longer iteration sequence (solid,
/// checkerboard and maximal-length backgrounds, both traversal
/// directions, plus random-trajectory iterations) that additionally
/// covers the 4-variant idempotent coupling faults (CFid) and
/// decoder multi-access faults whose aliasing distance resonates with
/// short background periods.  This goes beyond the paper's 3-iteration
/// claim — see EXPERIMENTS.md for the measured coverage of both.
[[nodiscard]] PrtScheme extended_scheme_bom(mem::Addr n);
[[nodiscard]] PrtScheme extended_scheme_wom(mem::Addr n, unsigned m,
                                            gf::Poly2 p = 0);

/// Retention-test scheme: two solid-background iterations (all-ones,
/// all-zeros) with a `pause_ticks` idle window between each sweep and
/// its verify pass — the write/pause/read pattern that exposes
/// data-retention faults of both decay polarities (the pure sweep
/// re-reads each cell within ~2 operations and can never wait out a
/// realistic decay delay).  Throws std::invalid_argument naming n and
/// m unless n > 2 and 1 <= m <= 16.
[[nodiscard]] PrtScheme retention_scheme(mem::Addr n, unsigned m,
                                         std::uint64_t pause_ticks,
                                         gf::Poly2 p = 0);

/// Number of operations a single-port scheme issues on n cells:
/// iterations * (k init writes + (n-k)(k reads + 1 write) + k Fin reads
/// + k Init re-reads); for k = 2 that is exactly iterations * 3n — the
/// O(3n) of §3.
[[nodiscard]] std::uint64_t prt_ops(mem::Addr n, unsigned k,
                                    unsigned iterations);

}  // namespace prt::core
