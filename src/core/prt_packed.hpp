// Bit-parallel PRT evaluation over packed fault lanes.
//
// Over GF(2) every scheme value is a single bit, so the LFSR feedback
// sum_j g_j * window[k-j] degenerates to an XOR of the selected window
// entries — which is *lane-wise*: one lane-word XOR computes all
// packed memories' feedback at once, each from its own (possibly
// fault-corrupted) reads.  Word-oriented schemes (GF(2^m), m > 1) pack
// just as well: a cell is m bit planes, each constant-coefficient
// multiply is a GF(2)-linear map compiled into the transcript as an
// m x m tap matrix (PrtIterSpan::tap_rows), and the feedback becomes a
// handful of plane-wide XORs — the same XOR-only realization the paper
// proposes for the BIST hardware itself.  run_prt_packed replays the
// compiled op transcript of the scheme (core/op_transcript.hpp)
// against a mem::PackedFaultRamT: a tight stream over flat
// {addr, golden} records with no Trajectory::at(), no oracle
// indirection and no per-op dispatch, comparing each lane's observed
// Fin, Init read-back, verify-pass image and (bit-sliced) MISR
// signature against the golden values baked into the transcript,
// returning the per-lane detected mask.
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
// fault — the parity tests in tests/test_packed_campaign.cpp and the
// lane-batching campaign layer (analysis/campaign_engine) rely on it.
//
// Per-lane early abort: a lane's mismatch latch is monotone, so the
// moment it is set the lane's verdict is final and the lane is retired
// from the pending mask.  With PackedRunOptions::early_abort the run
// stops as soon as every active lane is retired (at iteration
// boundaries, or mid-verify-pass once the mask saturates), and the
// reported scalar-equivalent op count reproduces exactly what
// run_prt(..., {.early_abort = true}) would have issued per lane:
// complete iterations up to and including the first failing one —
// analytic, from the transcript's per-iteration abort-op prefix sums.
#pragma once

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
/// lane words; unused and unallocated on the GF(2) path, whose
/// feedback accumulates inline).  Campaign shard loops own one per
/// lane width and pass it to every batch instead of reallocating per
/// batch.
template <typename W>
struct PackedScratchT {
  std::vector<W> misr;
  std::vector<W> planes;
};

using PackedScratch = PackedScratchT<mem::LaneWord>;

/// Verdict of a packed run at lane width LaneTraits<W>::kLanes.
template <typename W>
struct PackedVerdictT {
  /// Lane L set means lane L's fault is detected.  Lanes beyond
  /// ram.lanes_used() simulate fault-free memories and never deviate,
  /// but callers should still AND with ram.active_mask().  Inspect
  /// single lanes through lane_detected() / mem::lane_test rather than
  /// shifting the raw word — the mask is width-generic.
  W detected{};
  /// Sum over the ram's *active* lanes of the ops a scalar
  /// run_prt(FaultyRam, scheme, oracle, {.early_abort}) would have
  /// issued for that lane's fault: complete iterations up to and
  /// including the first failing one under early_abort, the full
  /// scheme otherwise.  Campaigns charge this to CampaignResult::ops
  /// so packed accounting stays bit-identical to the scalar path.
  std::uint64_t scalar_ops = 0;

  /// Width-generic per-lane accessor: lane `lane`'s verdict.
  [[nodiscard]] bool lane_detected(unsigned lane) const {
    return mem::lane_test(detected, lane);
  }
  /// Number of detected lanes (callers AND with active_mask first when
  /// the ram is partially filled).
  [[nodiscard]] unsigned detected_count() const {
    return mem::lane_popcount(detected);
  }
};

using PackedVerdict = PackedVerdictT<mem::LaneWord>;

/// Replays a compiled PRT transcript against the packed ram — the
/// campaign hot loop, one instantiation per lane width.
/// Preconditions: transcript built by make_op_transcript for this
/// scheme with transcript.n == ram.size() and
/// transcript.width == ram.width().
template <typename W>
[[nodiscard]] PackedVerdictT<W> run_prt_packed(mem::PackedFaultRamT<W>& ram,
                                               const OpTranscript& transcript,
                                               const PackedRunOptions& options,
                                               PackedScratchT<W>& scratch);

extern template PackedVerdictT<mem::LaneWord> run_prt_packed(
    mem::PackedFaultRamT<mem::LaneWord>&, const OpTranscript&,
    const PackedRunOptions&, PackedScratchT<mem::LaneWord>&);
extern template PackedVerdictT<mem::WideWord<8>> run_prt_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const OpTranscript&,
    const PackedRunOptions&, PackedScratchT<mem::WideWord<8>>&);

/// Oracle-based convenience overload: compiles the transcript on the
/// fly (one-shot callers, tests; 64-lane).  Preconditions:
/// validate_prt_scheme(scheme, ram.size(), ram.width()) passes, oracle
/// built by make_prt_oracle(scheme, ram.size()).
[[nodiscard]] PackedVerdict run_prt_packed(mem::PackedFaultRam& ram,
                                           const PrtScheme& scheme,
                                           const PrtOracle& oracle,
                                           const PackedRunOptions& options);

/// Full-scheme convenience overload: returns just the detected mask of
/// a run without early abort (the packed op count ram.ops() then
/// equals the scalar per-fault op count of a complete run).
[[nodiscard]] std::uint64_t run_prt_packed(mem::PackedFaultRam& ram,
                                           const PrtScheme& scheme,
                                           const PrtOracle& oracle);

}  // namespace prt::core
