// Executes March tests against a Memory and reports detection.
//
// A March test detects a fault when any read returns a value different
// from the expected data.  For word-oriented memories the classic {0,1}
// data indices are expanded over a set of data backgrounds; the
// standard log2(m)+1 backgrounds (solid, checkerboard, double-stripe,
// ...) are provided.
//
// Campaign hot loops do not re-derive the element/address/op nesting
// per fault: make_march_transcript compiles the whole background sweep
// of one (test, n, m) golden run into a flat core::OpTranscript of
// width m, and the packed replay run_march_packed streams through it
// one lane word of faults at a time (64 or 512 lanes) — the bit loop at
// m = 1, the word loop (every plane of each cell per access) above it.
// Each lane is bit-identical to run_march_backgrounds on a FaultyRam
// holding that lane's fault, including the early-abort op accounting
// (stop at the first mismatching read, ops = everything issued up to
// and including it, across backgrounds), which the packed path reports
// per lane analytically.  run_march / run_march_backgrounds stay the
// scalar reference.
#pragma once

#include <cstdint>
#include <vector>

#include "core/op_transcript.hpp"
#include "march/march_test.hpp"
#include "mem/memory.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt::march {

/// Virtual-time ticks a "Del" element advances by default — long
/// enough to out-wait every retention fault the universes inject.
/// Shared by every runner/compiler so the scalar, transcript and
/// background-sweep paths stay bit-identical.
inline constexpr std::uint64_t kDefaultDelayTicks = 100'000;

/// Outcome of one March run.
struct MarchResult {
  bool fail = false;          // any read mismatched
  std::uint64_t mismatches = 0;
  std::uint64_t ops = 0;      // reads + writes actually issued
  // First mismatch, valid when fail:
  mem::Addr first_addr = 0;
  mem::Word first_expected = 0;
  mem::Word first_actual = 0;
};

struct MarchRunOptions {
  /// Stop at the first mismatching read.  The fail verdict is
  /// unchanged (a March test detects iff any read deviates) but ops
  /// counts only what was actually issued — the abort-aware scalar
  /// reference the packed per-lane op accounting reproduces exactly.
  /// run_march_backgrounds additionally skips the remaining
  /// backgrounds after the first failing run.
  bool early_abort = false;
};

/// Runs `test` over the whole address space of `memory` with data
/// index 0 = `background`, index 1 = ~background.  Each "Del" element
/// advances the memory's virtual time by `delay_ticks` (data-retention
/// faults decay against that clock).
[[nodiscard]] MarchResult run_march(const MarchTest& test,
                                    mem::Memory& memory,
                                    mem::Word background = 0,
                                    std::uint64_t delay_ticks = kDefaultDelayTicks,
                                    const MarchRunOptions& options = {});

/// Runs the test once per background and merges the results (a fault is
/// detected if any background run fails).
[[nodiscard]] MarchResult run_march_backgrounds(
    const MarchTest& test, mem::Memory& memory,
    const std::vector<mem::Word>& backgrounds,
    const MarchRunOptions& options = {});

/// Compiles `test` on an n-cell, m-bit memory into a flat op
/// transcript of width m: the run_march_backgrounds sweep over
/// standard_backgrounds(m), one background after the other on the same
/// memory, each complemented when `background` is set (at m = 1 that
/// is the single run with data index 0 = background).  One
/// core::MarchSegment per element per background, records flattened in
/// traversal order with word-valued goldens.  Built once per campaign
/// and replayed per fault.  Throws std::invalid_argument on n = 0, m
/// outside [1, 32] and elements with no or more than 32 ops.
[[nodiscard]] core::OpTranscript make_march_transcript(
    const MarchTest& test, mem::Addr n, bool background,
    std::uint64_t delay_ticks = kDefaultDelayTicks, unsigned m = 1);

/// Replays a compiled March transcript bit-parallel over a
/// mem::PackedFaultRamT (one independent single-fault lane per word
/// bit): each write broadcasts the record's data word to every lane and
/// each read compares every lane against the expected word at once — a
/// lane deviates when any of its bit planes does.  The bit or word
/// loop is picked once per call from the transcript's width, which
/// must equal ram.width().  Per-lane semantics are identical to
/// run_march_backgrounds(test, FaultyRam-with-that-fault, backgrounds,
/// options) at every lane width.  Returns the core::PackedVerdictT the
/// PRT replay returns too: with early_abort, the shared
/// core::LaneLatch retires each lane at its first mismatching read,
/// charged that read's 1-based op index, and the replay stops once
/// every active lane is retired.  Without early abort it stops after
/// the first element by which every active lane has latched
/// (core::LaneLatch::decided): the verdict is a complete run's, only
/// the physical op count ram.ops() is smaller.  Lanes beyond
/// ram.lanes_used() never deviate, but callers should still AND with
/// ram.active_mask().
template <typename W>
[[nodiscard]] core::PackedVerdictT<W> run_march_packed(
    mem::PackedFaultRamT<W>& ram, const core::OpTranscript& transcript,
    const MarchRunOptions& options = {});

extern template core::PackedVerdictT<mem::LaneWord> run_march_packed(
    mem::PackedFaultRamT<mem::LaneWord>&, const core::OpTranscript&,
    const MarchRunOptions&);
extern template core::PackedVerdictT<mem::WideWord<8>> run_march_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const core::OpTranscript&,
    const MarchRunOptions&);

/// The standard data backgrounds for an m-bit word: solid 0,
/// checkerboard 0101.., double stripe 0011.., quad stripe 00001111..,
/// etc — ceil(log2(m)) + 1 words.  m = 1 yields just {0}.  Throws
/// std::invalid_argument naming m outside [1, 32].
[[nodiscard]] std::vector<mem::Word> standard_backgrounds(unsigned m);

}  // namespace prt::march
