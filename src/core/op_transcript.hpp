// Cached op-transcript replay: compile a (scheme, n) golden run into a
// flat op stream and make every hot loop a tight replay.
//
// A fault campaign replays the *same* deterministic golden operation
// stream per (scheme, n) — or per (march_test, n, m) — against
// thousands of faults.  The live engines (PiTester::run,
// march::run_march) re-derive that stream op by op on every run:
// trajectory lookups, oracle vector indirection, per-op branching on
// the scheme structure, feedback through WordLfsr::feedback.  An
// OpTranscript is the stream compiled once: a flat, cache-friendly
// array of {addr, golden} records plus per-iteration checkpoints
// (expected MISR signature, pause ticks, feedback mask, and the
// abort-op prefix sums that make per-lane early-abort op accounting
// analytic).  The packed replays stream through contiguous records
// with no oracle indirection and no per-op dispatch, one lane word of
// faults at a time (64 or 512 lanes, mem/lane_word.hpp):
//
//  * core::run_prt_packed (prt_packed.hpp) replays a PRT transcript
//    against a mem::PackedFaultRamT;
//  * march::run_march_packed (march/march_runner.hpp) replays a March
//    transcript compiled by march::make_march_transcript.
//
// Both return the PackedVerdictT below and keep their lanes in one
// LaneLatch, so the rule that retires a detected lane and charges its
// scalar-equivalent ops is written once for both test kinds.
//
// Campaigns fetch one transcript per (scheme, n) from the
// analysis::OracleCache and share it read-only across workers; it is
// immutable after construction.  The live runs stay the scalar
// reference: per-lane verdicts and abort ops of the replays must equal
// run_prt / run_march_backgrounds on a FaultyRam holding that lane's
// fault (the campaign fuzzer, tests/test_fuzz_campaign.cpp).  See
// DESIGN.md §9, §21 and §28.
#pragma once

#include <cstdint>
#include <vector>

#include "core/prt_engine.hpp"
#include "mem/lane_word.hpp"

namespace prt::core {

/// One compiled operation: the cell it touches and the golden value
/// associated with that position (seed value for init writes, golden
/// LFSR sequence value for sweep positions — which doubles as the
/// expected Fin/Init read-back — expected image bit for verify-pass
/// reads, expected data for March reads/writes).
struct OpRec {
  mem::Addr addr = 0;
  gf::Elem golden = 0;
};

/// Checkpoint of one compiled PRT iteration: spans into
/// OpTranscript::recs plus everything the replay needs between the
/// flat loops.
struct PrtIterSpan {
  /// recs[traj_begin .. traj_begin + n): the trajectory in visiting
  /// order.  Records [0, k) are the seed writes (golden = seed, also
  /// the expected Init re-read), the sweep slides k-wide read windows
  /// over the whole span, and records [n - k, n) carry Fin* as golden.
  std::size_t traj_begin = 0;
  /// recs[verify_begin .. verify_begin + n): the verify pass, address
  /// ascending, golden = fault-free image bit.  Only when has_verify.
  std::size_t verify_begin = 0;
  bool has_verify = false;
  /// Register length k of this iteration's generator.
  unsigned k = 0;
  /// Feedback selection: bit j set means window position j (the read
  /// of trajectory position q + j) feeds the feedback write — bit j
  /// corresponds to a non-zero generator coefficient g[k - j].  Over
  /// GF(2) the tap is a plain XOR of the read; wider fields also need
  /// tap_rows below.
  std::uint64_t fb_mask = 0;
  /// GF(2^m) tap matrices, empty for GF(2) schemes.  Multiplying by
  /// the constant g[k - j] is GF(2)-linear, so tap j is an m x m bit
  /// matrix: tap_rows[j * m + r] is the mask of input bit planes XORed
  /// into output plane r (row r of gf::multiplier_matrix(field,
  /// g[k - j])).  The packed word replay applies it lane-parallel
  /// (plane XORs).
  std::vector<std::uint32_t> tap_rows;
  /// Golden MISR signature over this iteration's read stream (sweep
  /// windows, Fin read-back, Init re-read); 0 when MISR is disabled.
  std::uint64_t misr_expected = 0;
  /// Idle ticks between the sweep and the verify pass.
  std::uint64_t pause_ticks = 0;
  /// Reads/writes a scalar single-port run has issued once this
  /// iteration completes (cumulative over iterations) — the abort-op
  /// prefix sums: a fault whose first failing iteration is this one
  /// costs exactly ops_end under early abort.
  std::uint64_t reads_end = 0;
  std::uint64_t writes_end = 0;
  [[nodiscard]] std::uint64_t ops_end() const { return reads_end + writes_end; }
};

/// One compiled March element under one background
/// (march::make_march_transcript): recs [begin, end) hold the element's
/// operations flattened in traversal order, `period` ops per address,
/// read_mask bit j set when op j of each period is a read (golden =
/// expected data word) instead of a write (golden = data word to
/// write).
struct MarchSegment {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint32_t period = 1;
  std::uint32_t read_mask = 0;
  /// A "Del" element: no records, one advance_time(delay_ticks).
  bool is_delay = false;
};

/// A compiled golden op stream.  Exactly one of `iterations` (PRT) or
/// `march` (March) is non-empty.
struct OpTranscript {
  mem::Addr n = 0;
  std::vector<OpRec> recs;
  // --- PRT side ---
  std::vector<PrtIterSpan> iterations;
  gf::Poly2 misr_poly = 0;  // 0 = MISR disabled
  /// Word width m: every golden value and memory word is an m-bit
  /// quantity — the field degree of a PRT scheme, the memory width of
  /// a March sweep.  Both replays pick their word path when m > 1.
  unsigned width = 1;
  // --- March side ---
  std::vector<MarchSegment> march;
  std::uint64_t delay_ticks = 0;
  /// Reads + writes of one complete scalar replay (the non-abort
  /// per-fault op cost).
  std::uint64_t total_reads = 0;
  std::uint64_t total_writes = 0;
  [[nodiscard]] std::uint64_t total_ops() const {
    return total_reads + total_writes;
  }
};

/// Compiles `scheme` against `oracle` (built by make_prt_oracle(scheme,
/// n)) into a flat transcript.  Precondition: validate_prt_scheme(scheme,
/// n, m) passes for the field degree m (GF(2) taps degenerate to the
/// XOR mask, wider fields get per-tap bit matrices; m * k <= 64 keeps
/// every fb_mask in range).
[[nodiscard]] OpTranscript make_op_transcript(const PrtScheme& scheme,
                                              const PrtOracle& oracle);

/// Verdict of a packed replay (PRT or March) at lane width
/// LaneTraits<W>::kLanes.
template <typename W>
struct PackedVerdictT {
  /// Lane L set means lane L's fault is detected.  Lanes beyond
  /// ram.lanes_used() simulate fault-free memories and never deviate,
  /// but callers should still AND with ram.active_mask().  Inspect
  /// single lanes through lane_detected() / mem::lane_test rather than
  /// shifting the raw word — the mask is width-generic.
  W detected{};
  /// Sum over the ram's *active* lanes of the ops the scalar reference
  /// (run_prt or run_march_backgrounds on a FaultyRam holding that
  /// lane's fault, with the same early_abort) would have issued:
  /// everything up to its abort point under early abort, the whole
  /// transcript otherwise.  Campaigns charge this to
  /// CampaignResult::ops so packed accounting stays bit-identical to
  /// the scalar path.
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

/// The lane bookkeeping both packed replays share.  A lane's mismatch
/// latch is monotone, so the moment it is set the lane's verdict is
/// final.  Under early abort the replay calls retire() at each point
/// where the scalar reference could stop — PRT after every iteration
/// and at every verify read, March after every read — with the ops that
/// reference has issued by then; lanes that latched since the last call
/// are charged exactly that and leave the pending set.  finish()
/// charges every lane still pending the complete transcript: all active
/// lanes when early abort is off.  Once decided(), both replays stop
/// (PRT after an iteration, March after an element): the rest of the
/// transcript could change neither the mask nor the charge.
template <typename W>
struct LaneLatch {
  /// Lanes whose observed value ever deviated from the golden one.
  W mismatch{};
  /// Active lanes not yet retired.
  W pending;
  std::uint64_t scalar_ops = 0;

  explicit LaneLatch(const W& active) : pending(active) {}

  /// Retires the pending lanes whose mismatch has latched, charging each
  /// `ops`.  Returns true when this call retired the last pending lane:
  /// the replay can stop, no verdict can change any more.
  bool retire(std::uint64_t ops) {
    const W newly = pending & mismatch;
    if (!mem::lane_any(newly)) return false;
    scalar_ops += static_cast<std::uint64_t>(mem::lane_popcount(newly)) * ops;
    pending &= ~newly;
    return !mem::lane_any(pending);
  }

  /// True when no pending lane lacks a mismatch.  Without early abort
  /// every active lane stays pending and finish() charges it the whole
  /// transcript whenever it latched, so a batch whose lanes have all
  /// latched has its verdict and its scalar-equivalent charge fixed.
  [[nodiscard]] bool decided() const {
    return !mem::lane_any(pending & ~mismatch);
  }

  /// The verdict, charging the lanes still pending `total_ops` each.
  [[nodiscard]] PackedVerdictT<W> finish(std::uint64_t total_ops) const {
    return {mismatch,
            scalar_ops +
                static_cast<std::uint64_t>(mem::lane_popcount(pending)) *
                    total_ops};
  }
};

}  // namespace prt::core
