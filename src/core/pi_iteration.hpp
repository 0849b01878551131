// The pi-test iteration — Eq. (1) of the paper.
//
//   pi-iteration = { c(w d0 .. d_{k-1});
//                    sweep_q ( r a_q, ..., r a_{q+k-1},
//                              w a_{q+k} = sum_j g_j * r_{a_{q+k-j}} ) }
//
// The memory array traces the state sequence of the virtual LFSR with
// generator g(x) over GF(2^m) along the chosen trajectory.  Each
// sub-iteration issues k reads and one write; with the final Init/Fin
// read-back a single-port iteration costs exactly 3n operations for
// k = 2 (paper §3: O(3n)).  The verdict compares the observed final
// state Fin (read back from the last k visited cells) with the
// model-predicted Fin*, and the re-read Init cells with the seed —
// "comparing initial Init and final Fin states" (paper §2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/trajectory.hpp"
#include "gf/gf2m.hpp"
#include "lfsr/lfsr.hpp"
#include "lfsr/misr.hpp"
#include "mem/memory.hpp"

namespace prt::core {

/// Per-iteration test data background: the initial values d and the
/// trajectory, the second and third control factors of §3.
struct PiConfig {
  std::vector<gf::Elem> init;  // k seed values, oldest first
  TrajectoryKind trajectory = TrajectoryKind::kAscending;
  std::uint64_t seed = 0;      // random-trajectory seed
  /// Appends a read-only ascending sweep comparing every cell against
  /// the model-predicted image (+n ops, making the iteration ~4n).
  /// Catches corruptions that outlast the sweep but are overwritten
  /// unread by the next iteration — idempotent coupling faults in the
  /// non-window orientation and decoder multi-access aliasing (see
  /// extended_scheme_* and EXPERIMENTS.md).
  bool verify_pass = false;
  /// Idle ticks inserted between the sweep and the verify pass —
  /// the classic write/pause/read pattern for data-retention faults.
  /// Only meaningful with verify_pass (the sweep itself re-reads every
  /// cell immediately after writing it).
  std::uint64_t pause_ticks = 0;
};

/// Outcome of one pi-iteration.
struct PiResult {
  bool pass = false;
  std::vector<gf::Elem> fin;           // observed (read back)
  std::vector<gf::Elem> fin_expected;  // Fin* from the LFSR model
  /// Read-back of the first k visited cells at the end of the sweep —
  /// the "Init" side of the paper's "comparing initial Init and final
  /// Fin states"; catches corruptions of the seed cells after their
  /// only sweep read.  Expected value is the written init itself
  /// (pass accounts for it).
  std::vector<gf::Elem> init_readback;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  /// Scheduling cycles on a single-port memory: one per operation.
  [[nodiscard]] std::uint64_t cycles() const { return reads + writes; }
  /// MISR signature over the read stream (observed / expected); only
  /// meaningful when the engine was built with a MISR polynomial.
  std::uint64_t misr = 0;
  std::uint64_t misr_expected = 0;
  bool misr_pass = true;
  /// Mismatching cells found by the verify pass (0 when disabled).
  std::uint64_t verify_mismatches = 0;
};

/// Everything about one pi-iteration that does NOT depend on the memory
/// under test: the trajectory permutation, the model-predicted Fin*,
/// the fault-free image (when a verify pass will read it) and the
/// golden MISR signature over the read stream.  Fault-simulation
/// campaigns build one oracle per SchemeIteration and reuse it for
/// every fault, so the per-fault hot loop re-derives nothing — see
/// analysis/campaign_engine.  An oracle is immutable after
/// construction and safe to share across threads.
struct PiOracle {
  mem::Addr n = 0;                     // array size the oracle was built for
  Trajectory trajectory;               // visiting order for the config
  std::vector<gf::Elem> fin_expected;  // Fin* (k elements)
  /// Fault-free memory image after the sweep, indexed by address.
  /// Empty unless the config has verify_pass set (only the verify pass
  /// reads it).
  std::vector<gf::Elem> image;
  /// Golden MISR signature over the full read stream (sweep windows,
  /// Fin read-back, Init read-back); 0 when the tester has no MISR.
  std::uint64_t misr_expected = 0;
};

/// Binds the virtual-LFSR structure (factor 1 of §3: the field p(z) and
/// generator g(x)) and runs pi-iterations against memories.
class PiTester {
 public:
  /// Throws std::invalid_argument where the WordLfsr constructor does.
  PiTester(gf::GF2m field, std::vector<gf::Elem> g);

  /// Enables the optional MISR read-stream compaction (DESIGN.md §6).
  /// `poly` is a GF(2) polynomial of degree in [1, 63]; a degree below
  /// field.m() folds only the low deg(poly) bits of each read word
  /// into the signature (both golden and observed streams fold
  /// identically, so the verdict stays sound — only the aliasing
  /// probability grows).  Throws std::invalid_argument naming `poly`
  /// when its degree is outside [1, 63].
  void enable_misr(gf::Poly2 poly);

  [[nodiscard]] const gf::GF2m& field() const { return lfsr_.field(); }
  [[nodiscard]] unsigned k() const { return lfsr_.k(); }
  [[nodiscard]] const std::vector<gf::Elem>& g() const { return lfsr_.g(); }

  /// The feedback combination sum_j g_j * window[k-j] a sub-iteration
  /// writes (window oldest-first).  Exposed for the multi-port
  /// schedulers.
  [[nodiscard]] gf::Elem feedback_of(std::span<const gf::Elem> window) const {
    return lfsr_.feedback(window);
  }

  /// Runs one pi-iteration.  Preconditions: memory.width() == m of the
  /// field, memory.size() > k, config.init.size() == k.
  PiResult run(mem::Memory& memory, const PiConfig& config) const;

  /// Precomputes the memory-independent side of an iteration (see
  /// PiOracle).  Preconditions as for run().
  [[nodiscard]] PiOracle make_oracle(mem::Addr n, const PiConfig& config) const;

  /// Runs one pi-iteration against a precomputed oracle: no trajectory
  /// construction, no golden-sequence replay, no LFSR jump-ahead in the
  /// hot path.  Preconditions: as for run(), plus oracle built by this
  /// tester (same g, same MISR setting) for this n and config.
  PiResult run(mem::Memory& memory, const PiConfig& config,
               const PiOracle& oracle) const;

  /// Fin* for an n-cell sweep from the given seed: the LFSR state after
  /// n - k steps, computed by jump-ahead in O(log n).
  [[nodiscard]] std::vector<gf::Elem> expected_fin(
      mem::Addr n, std::span<const gf::Elem> init) const;

  /// The full fault-free memory image after the iteration, indexed by
  /// cell address (inverts the trajectory mapping).
  [[nodiscard]] std::vector<gf::Elem> expected_image(
      mem::Addr n, const PiConfig& config) const;

  /// True when the iteration "closes the ring": Fin == Init, which
  /// happens iff the automaton advances a whole number of periods,
  /// i.e. (n - k) mod period == 0 (paper Fig. 1b; the paper phrases it
  /// as the array size being a multiple of the LFSR period).
  [[nodiscard]] bool ring_closes(mem::Addr n) const;

  /// Period of the virtual automaton (order of x modulo g).
  [[nodiscard]] std::uint64_t period() const {
    return lfsr_.algebraic_period();
  }

 private:
  lfsr::WordLfsr lfsr_;
  gf::Poly2 misr_poly_ = 0;
};

}  // namespace prt::core
