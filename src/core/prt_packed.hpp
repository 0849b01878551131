// Bit-parallel PRT evaluation over packed fault lanes.
//
// The paper's automaton is one linear recurrence over GF(2^m); a
// bit-oriented memory is its m = 1 case, and so is the replay here.
// Over GF(2) every scheme value is a single bit, so the LFSR feedback
// sum_j g_j * window[k-j] degenerates to an XOR of the selected window
// entries — which is *lane-wise*: one lane-word XOR computes all
// packed memories' feedback at once, each from its own (possibly
// fault-corrupted) reads.  Over GF(2^m), m > 1, a cell is m bit planes
// and each constant-coefficient multiply is a GF(2)-linear map compiled
// into the transcript as an m x m tap matrix (PrtIterSpan::tap_rows),
// so the feedback becomes a handful of plane-wide XORs — the same
// XOR-only realization the paper proposes for the BIST hardware
// itself.  run_prt_packed replays the compiled op transcript of the
// scheme (core/op_transcript.hpp) against a mem::PackedFaultRamT: a
// tight stream over flat {addr, golden} records with no
// Trajectory::at(), no oracle indirection and no per-op dispatch,
// comparing each lane's observed Fin, Init read-back, verify-pass
// image and (bit-sliced) MISR signature against the golden values
// baked into the transcript, returning the per-lane detected mask.
//
// One loop serves both word shapes.  The transcript's width picks its
// access path once per call: the bit path (m = 1) carries every read
// as one plain lane word through PackedFaultRamT::read / write, the
// word path (m > 1) moves whole cells through read_word / write_word
// and keeps its planes in PackedScratchT.
//
// The whole replay is generic over the lane word W
// (mem/lane_word.hpp): the 64-lane std::uint64_t and the 512-lane
// WideWord<8> share one definition, and a lane's verdict
// is identical at every width — the hot loop is pure lane-wise
// AND/OR/XOR, so widening the word only changes how many faults ride
// one sweep.
//
// Detection semantics per lane are identical to
// run_prt(FaultyRam, scheme, oracle).detected() for the same single
// fault — the campaign fuzzer (tests/test_fuzz_campaign.cpp) holds it,
// and the lane-batching campaign layer (analysis/campaign_driver.hpp)
// relies on it.
//
// Per-lane early abort: the replay keeps its lanes in a
// core::LaneLatch (op_transcript.hpp), shared with the March replay.
// run_prt_packed_iteration replays one iteration against a latch the
// caller keeps, so a caller can stop between iterations, move the
// undecided lanes to another ram and resume them there (the campaign
// driver's spill loop, DESIGN.md §29); run_prt_packed is its loop over
// every iteration.
// With PackedRunOptions::early_abort a latched lane retires no later
// than the end of its iteration, charged exactly what
// run_prt(..., {.early_abort = true}) would have issued for it:
// complete iterations up to and including the first failing one —
// analytic, from the transcript's per-iteration abort-op prefix sums.
// The run stops once the last pending lane retires, mid-verify-pass if
// that is where it latches.  Without early abort it stops after the
// first iteration by which every active lane has latched
// (LaneLatch::decided): verdicts and scalar_ops are those of a complete
// run, only the physical op count ram.ops() is smaller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/op_transcript.hpp"
#include "core/prt_engine.hpp"
#include "mem/packed_fault_ram.hpp"

namespace prt::core {

struct PackedRunOptions {
  /// Retire lanes as their mismatch latches and stop the run once the
  /// detected mask saturates over the active lanes.  Detected masks
  /// are unchanged (the latch is monotone); scalar_ops shrinks to the
  /// per-lane scalar early-abort cost.
  bool early_abort = false;
};

/// Reusable replay scratch: the bit-sliced MISR state plus the word
/// path's plane buffers (read word, feedback accumulator — 2 * width
/// lane words; never allocated on the bit path, which keeps its values
/// in lane words), sized to the transcript's width rather than to the
/// 32-plane maximum a stack array would need.  Campaign shard loops own
/// one per lane width and pass it to every batch instead of
/// reallocating per batch.
template <typename W>
struct PackedScratchT {
  std::vector<W> misr;
  std::vector<W> planes;
};

/// Replays iteration `iteration` of a compiled PRT transcript against
/// the packed ram, latching mismatches into `latch` and, under early
/// abort, retiring its latched lanes.  Returns true when the run can
/// stop (LaneLatch::decided): no later iteration can change a verdict
/// or a charge.  The lanes' state at the iteration boundary is the
/// ram's, so iteration i + 1 resumes either on the same ram or on one
/// the lanes were restored into (mem::PackedFaultRamT::save_lane).
/// Same preconditions as run_prt_packed, plus iteration <
/// transcript.iterations.size().
template <typename W>
[[nodiscard]] bool run_prt_packed_iteration(mem::PackedFaultRamT<W>& ram,
                                            const OpTranscript& transcript,
                                            std::size_t iteration,
                                            const PackedRunOptions& options,
                                            PackedScratchT<W>& scratch,
                                            LaneLatch<W>& latch);

/// Replays a compiled PRT transcript against the packed ram — the
/// campaign hot loop, one instantiation per lane width — and returns
/// the core::PackedVerdictT shared with the March replay.
/// Preconditions: transcript built by make_op_transcript for this
/// scheme with transcript.n == ram.size() and
/// transcript.width == ram.width().
template <typename W>
[[nodiscard]] PackedVerdictT<W> run_prt_packed(mem::PackedFaultRamT<W>& ram,
                                               const OpTranscript& transcript,
                                               const PackedRunOptions& options,
                                               PackedScratchT<W>& scratch);

extern template bool run_prt_packed_iteration(
    mem::PackedFaultRamT<mem::LaneWord>&, const OpTranscript&, std::size_t,
    const PackedRunOptions&, PackedScratchT<mem::LaneWord>&,
    LaneLatch<mem::LaneWord>&);
extern template bool run_prt_packed_iteration(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const OpTranscript&, std::size_t,
    const PackedRunOptions&, PackedScratchT<mem::WideWord<8>>&,
    LaneLatch<mem::WideWord<8>>&);
extern template PackedVerdictT<mem::LaneWord> run_prt_packed(
    mem::PackedFaultRamT<mem::LaneWord>&, const OpTranscript&,
    const PackedRunOptions&, PackedScratchT<mem::LaneWord>&);
extern template PackedVerdictT<mem::WideWord<8>> run_prt_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const OpTranscript&,
    const PackedRunOptions&, PackedScratchT<mem::WideWord<8>>&);

}  // namespace prt::core
