// Intra-word fault testing for word-oriented memories (paper §2).
//
// "For the WOM there are intra-word faults that can be tested by
//  parallel application of a pi-testing for BOM.  In this case it is
//  supposed that there are m independent bit-oriented linear automatons.
//  For all automatons the read and write operations are executed
//  simultaneously.  To detect the intra-word faults two different
//  pi-testing can be performed: (1) with parallel or (2) with random
//  trajectories."
//
// Mode (1) — parallel trajectories: all m bit-plane automata share the
// address trajectory, so each sub-iteration is one word-wide access;
// the per-plane GF(2) feedbacks combine into a single word operation.
// Per-plane diversity comes from per-plane initial values (the
// heuristically derived d of §2, here: plane b starts at phase b of the
// plane LFSR cycle).
//
// Mode (2) — random (independent) trajectories: every plane is swept
// along its own pseudo-random address permutation, which breaks the
// word-alignment of aggressor/victim bit pairs.  In hardware this is
// the externally programmable trajectory block the paper mentions; in
// simulation each plane performs masked read-modify-write accesses.
//
// IntraWordOracle::run is the live scalar reference on any mem::Memory;
// IntraWordOracle::run_packed replays the same op sequence on packed
// fault lanes, one fault per lane, and is what the paper table runs
// (DESIGN.md §26).
#pragma once

#include <cstdint>
#include <vector>

#include "core/op_transcript.hpp"
#include "core/pi_iteration.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt::core {

enum class IntraWordMode : std::uint8_t {
  kParallelTrajectories,
  kRandomTrajectories,
};

struct IntraWordConfig {
  /// GF(2) generator of each bit-plane automaton (g0..gk, bits).
  std::vector<gf::Elem> plane_g{1, 1, 1};
  /// Which of the two tests of the file comment runs; in either, plane
  /// b starts from plane_init(plane_g, b).
  IntraWordMode mode = IntraWordMode::kParallelTrajectories;
  /// The shared trajectory of the parallel mode; the random mode
  /// sweeps every plane along its own random permutation.
  TrajectoryKind trajectory = TrajectoryKind::kAscending;
  /// Seeds a random shared trajectory, and plane b's permutation in the
  /// random mode.
  std::uint64_t seed = 0;
};

struct IntraWordResult {
  bool pass = false;
  /// Per-plane observed and expected Fin states (k bits each, packed
  /// little-endian into one word per plane).
  std::vector<std::uint32_t> fin;
  std::vector<std::uint32_t> fin_expected;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// The per-plane initial values: plane b's bit automaton starts from
/// the state of the plane LFSR advanced by b steps, so neighbouring
/// planes always carry distinct local backgrounds (this is the
/// concrete heuristic standing in for the paper's "values d derive
/// heuristically").  Throws std::invalid_argument where the WordLfsr
/// constructor does over GF(2).
[[nodiscard]] std::vector<gf::Elem> plane_init(
    const std::vector<gf::Elem>& plane_g, unsigned plane);

/// The rule every intra-word test enforces.  Throws
/// std::invalid_argument, naming the value, unless 2 <= m <= 32, the
/// plane generator has degree k in [1, 32] (Fin packs k bits into one
/// 32-bit word per plane), g0 = gk = 1, every coefficient is 0 or 1
/// (the planes are GF(2) automata), and n > k.
void validate_intra_word(const IntraWordConfig& config, mem::Addr n,
                         unsigned m);

/// Everything an intra-word test derives from (config, n, m) and not
/// from the memory under test: the per-plane seeds, the word-wide init
/// values, the golden Fin, the trajectory (one shared, or one per plane
/// in the random mode) and the op count.  Built once per table and
/// shared read-only by every fault and every worker thread, as
/// PrtOracle is for PRT schemes.
class IntraWordOracle {
 public:
  /// Throws std::invalid_argument where validate_intra_word does.
  IntraWordOracle(const IntraWordConfig& config, mem::Addr n, unsigned m);

  /// Word reads plus writes of one run; a fault does not change them.
  [[nodiscard]] std::uint64_t ops() const { return reads_ + writes_; }

  /// Runs the test on `memory`.  Throws std::invalid_argument unless
  /// the memory has n cells of m bits.
  [[nodiscard]] IntraWordResult run(mem::Memory& memory) const;

  /// Runs the test on every lane of `ram` at once: the same reads and
  /// writes, in the same order, as run() on a FaultyRam holding that
  /// lane's fault, so the op clock, the sense-amp history and retention
  /// advance as they do there.  A lane is detected when its Fin differs
  /// from the golden Fin in any plane; scalar_ops is ops() per active
  /// lane.  Throws std::invalid_argument, naming both geometries,
  /// unless the ram has n cells of m bits.  Instantiated for the
  /// 64-lane and the 512-lane word.
  template <typename W>
  [[nodiscard]] PackedVerdictT<W> run_packed(
      mem::PackedFaultRamT<W>& ram) const;

 private:
  /// Throws std::invalid_argument unless (n, m) is the oracle's
  /// geometry.
  void check_geometry(mem::Addr n, unsigned m) const;

  IntraWordMode mode_ = IntraWordMode::kParallelTrajectories;
  mem::Addr n_ = 0;
  unsigned m_ = 0;
  unsigned k_ = 0;
  /// Window offsets (k - j) of the generator's non-zero taps g1..gk.
  std::vector<unsigned> taps_;
  /// plane_init(plane_g, b) for every plane b.
  std::vector<std::vector<gf::Elem>> plane_seeds_;
  /// Parallel mode: bit b of word j is plane b's seed j.
  std::vector<mem::Word> word_init_;
  std::vector<std::uint32_t> fin_expected_;
  /// The shared trajectory, or plane b's at index b.
  std::vector<Trajectory> trajectories_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

extern template PackedVerdictT<mem::LaneWord> IntraWordOracle::run_packed(
    mem::PackedFaultRamT<mem::LaneWord>&) const;
extern template PackedVerdictT<mem::WideWord<8>> IntraWordOracle::run_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&) const;

/// Runs one intra-word pi-test over an m-bit memory, building the
/// oracle for this one run.  Throws std::invalid_argument where
/// validate_intra_word does for (memory.size(), memory.width()).
[[nodiscard]] IntraWordResult run_intra_word(mem::Memory& memory,
                                             const IntraWordConfig& config);

}  // namespace prt::core
