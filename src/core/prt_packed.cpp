#include "core/prt_packed.hpp"

#include <algorithm>
#include <cassert>

#include "util/bitops.hpp"

namespace prt::core {

namespace {

/// The one PRT replay loop, instantiated once per access path.  The bit
/// path (kWord false, m = 1) carries each read as one plain lane word
/// and accumulates the GF(2) feedback inline; the word path (m > 1)
/// reads and writes whole cells through read_word / write_word into the
/// scratch plane buffers, evaluates every feedback tap through the
/// transcript's compiled tap matrix and folds the low min(m, MISR
/// degree) planes into the MISR.  At m = 1 the word path would compute
/// the same thing; the bit path keeps the values in registers.
///
/// Every per-access lambda below is forced inline
/// (`__attribute__((always_inline))` after the parameter list, where
/// both GCC and Clang apply it to the call operator): left to itself
/// GCC 12 keeps the 512-lane bit path's read and write steps out of
/// line, one call per access (DESIGN.md §27).
template <bool kWord, typename W>
PackedVerdictT<W> replay(mem::PackedFaultRamT<W>& ram, const OpTranscript& t,
                         const PackedRunOptions& options,
                         PackedScratchT<W>& scratch) {
  const mem::Addr n = t.n;
  const unsigned m = t.width;
  const bool use_misr = t.misr_poly != 0;
  const unsigned misr_width =
      use_misr ? static_cast<unsigned>(poly_degree(t.misr_poly)) : 0;
  if (scratch.misr.size() < misr_width) scratch.misr.resize(misr_width);
  W* misr = scratch.misr.data();
  // Word path: the read word and the feedback accumulator, one lane
  // word per plane.
  W* word = nullptr;
  W* feedback = nullptr;
  if constexpr (kWord) {
    if (scratch.planes.size() < 2 * std::size_t{m}) {
      scratch.planes.resize(2 * std::size_t{m});
    }
    word = scratch.planes.data();
    feedback = word + m;
  }

  // Plane b of a golden value, broadcast to every lane.
  auto golden_plane = [](std::uint64_t golden,
                         unsigned b) __attribute__((always_inline)) {
    return mem::lane_broadcast<W>(static_cast<unsigned>((golden >> b) & 1U));
  };
  // One cell access: a lane word on the bit path, the plane buffer on
  // the word path.
  auto read = [&](mem::Addr addr) __attribute__((always_inline)) {
    if constexpr (kWord) {
      ram.read_word(addr, word);
      return static_cast<const W*>(word);
    } else {
      return ram.read(addr);
    }
  };
  auto write = [&](mem::Addr addr,
                   const auto& value) __attribute__((always_inline)) {
    if constexpr (kWord) {
      ram.write_word(addr, value);
    } else {
      ram.write(addr, value);
    }
  };
  // A golden value on every lane, in the shape write() takes.
  auto broadcast = [&](gf::Elem golden) __attribute__((always_inline)) {
    if constexpr (kWord) {
      for (unsigned b = 0; b < m; ++b) word[b] = golden_plane(golden, b);
      return static_cast<const W*>(word);
    } else {
      return mem::lane_broadcast<W>(golden);
    }
  };
  // The lanes whose read deviates from `golden` in any plane.
  auto deviates = [&](const auto& value,
                      gf::Elem golden) __attribute__((always_inline)) {
    if constexpr (kWord) {
      W diff{};
      for (unsigned b = 0; b < m; ++b) diff |= value[b] ^ golden_plane(golden, b);
      return diff;
    } else {
      return value ^ mem::lane_broadcast<W>(golden);
    }
  };
  // The feedback of one sweep step starts at zero.  Over GF(2) a tap
  // is a plain XOR of the read; over GF(2^m) feedback plane r
  // accumulates the read planes selected by row r of tap j's matrix
  // (a constant multiply as plane-wide XORs), and the field addition
  // across taps is plane-wise XOR too.
  auto zero_feedback = [&]() __attribute__((always_inline)) {
    if constexpr (kWord) {
      std::fill_n(feedback, m, W{});
      return feedback;
    } else {
      return W{};
    }
  };
  auto add_tap = [&](auto& fb, const auto& value, const PrtIterSpan& it,
                     unsigned j) __attribute__((always_inline)) {
    if constexpr (kWord) {
      const std::uint32_t* rows =
          it.tap_rows.data() + static_cast<std::size_t>(j) * m;
      for (unsigned r = 0; r < m; ++r) {
        W acc{};
        // The tap-matrix row is a scalar plane-selection mask, but it
        // iterates through the same set-lane walker as the lane masks
        // so no raw bit twiddling leaks out of mem/lane_word.hpp.
        mem::for_each_set_lane(static_cast<std::uint64_t>(rows[r]),
                               [&](unsigned p) { acc ^= value[p]; });
        fb[r] ^= acc;
      }
    } else {
      fb ^= value;
    }
  };
  // The lanes' independent MISRs, bit-sliced: state bit b of all lanes
  // lives in misr[b], so one shift costs O(width) lane-wide XORs
  // instead of per-lane scalar shifts.  Mirrors lfsr::Misr::shift
  // exactly: register shift first, then the input word XORed into the
  // state, so plane b lands in state bit b and planes at or above the
  // MISR degree are masked off.
  auto misr_shift = [&](const auto& value) __attribute__((always_inline)) {
    const W msb = misr[misr_width - 1];
    for (unsigned b = misr_width; b-- > 1;) {
      misr[b] = misr[b - 1] ^ (((t.misr_poly >> b) & 1U) ? msb : W{});
    }
    misr[0] = ((t.misr_poly & 1U) != 0) ? msb : W{};
    if constexpr (kWord) {
      const unsigned fold = std::min(m, misr_width);
      for (unsigned b = 0; b < fold; ++b) misr[b] ^= value[b];
    } else {
      misr[0] ^= value;
    }
  };

  LaneLatch<W> latch(ram.active_mask());
  // Fin / Init read-back: compared against the golden value and fed to
  // the MISR.
  auto read_back = [&](const OpRec& rec) __attribute__((always_inline)) {
    const auto value = read(rec.addr);
    latch.mismatch |= deviates(value, rec.golden);
    if (use_misr) misr_shift(value);
  };
  for (const PrtIterSpan& it : t.iterations) {
    const OpRec* traj = t.recs.data() + it.traj_begin;
    const unsigned kk = it.k;
    if (use_misr) std::fill_n(misr, misr_width, W{});

    // Initialization: broadcast the seed values to every lane.
    for (unsigned j = 0; j < kk; ++j) {
      write(traj[j].addr, broadcast(traj[j].golden));
    }

    // Sweep: each lane's feedback (Eq. 1) comes from its own window
    // reads, selected by the transcript's feedback mask and accumulated
    // inline — no window buffer.  Nothing latches during the sweep, so
    // there is no abort point inside it.
    for (mem::Addr q = 0; q + kk < n; ++q) {
      auto fb = zero_feedback();
      for (unsigned j = 0; j < kk; ++j) {
        const auto value = read(traj[q + j].addr);
        if (use_misr) misr_shift(value);
        if ((it.fb_mask >> j) & 1U) add_tap(fb, value, it, j);
      }
      write(traj[q + kk].addr, fb);
    }

    // Verdict: Fin read-back against Fin*, Init re-read against the
    // seed — any lane deviating in any plane is detected.
    for (unsigned j = 0; j < kk; ++j) read_back(traj[n - kk + j]);
    for (unsigned j = 0; j < kk; ++j) read_back(traj[j]);

    if (it.has_verify) {
      // The pause advances the packed clock: retention lanes decay
      // analytically at the first verify read past the boundary.
      if (it.pause_ticks != 0) ram.advance_time(it.pause_ticks);
      const OpRec* img = t.recs.data() + it.verify_begin;
      for (mem::Addr a = 0; a < n; ++a) {
        latch.mismatch |= deviates(read(img[a].addr), img[a].golden);
        // Once every lane has latched, nothing left in the run can
        // change a verdict (the latch is monotone and verify reads feed
        // no MISR) — stop.  The lanes are charged the complete
        // iteration, as the scalar abort run is.
        if (options.early_abort && latch.retire(it.ops_end())) {
          return latch.finish(t.total_ops());
        }
      }
    }
    if (use_misr) {
      // Lanes whose signature differs from the golden scalar signature.
      for (unsigned b = 0; b < misr_width; ++b) {
        latch.mismatch |= misr[b] ^ golden_plane(it.misr_expected, b);
      }
    }
    // Lanes that latched this iteration ran, scalar-equivalently, every
    // iteration up to and including this one — the transcript's
    // abort-op prefix sum.
    if (options.early_abort) latch.retire(it.ops_end());
    // Once every lane has latched, no later iteration can change a
    // verdict or a charge, early abort or not: stop.
    if (latch.decided()) break;
  }
  return latch.finish(t.total_ops());
}

}  // namespace

template <typename W>
PackedVerdictT<W> run_prt_packed(mem::PackedFaultRamT<W>& ram,
                                 const OpTranscript& t,
                                 const PackedRunOptions& options,
                                 PackedScratchT<W>& scratch) {
  assert(!t.iterations.empty());
  assert(t.n == ram.size());
  assert(t.width == ram.width());
  return t.width == 1 ? replay<false>(ram, t, options, scratch)
                      : replay<true>(ram, t, options, scratch);
}

template PackedVerdictT<mem::LaneWord> run_prt_packed(
    mem::PackedFaultRamT<mem::LaneWord>&, const OpTranscript&,
    const PackedRunOptions&, PackedScratchT<mem::LaneWord>&);
template PackedVerdictT<mem::WideWord<8>> run_prt_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const OpTranscript&,
    const PackedRunOptions&, PackedScratchT<mem::WideWord<8>>&);

}  // namespace prt::core
