#include "core/prt_packed.hpp"

#include <algorithm>
#include <cassert>

#include "util/bitops.hpp"

namespace prt::core {

namespace {

/// Word path (m > 1): every cell is m bit planes, goldens broadcast
/// per plane, the feedback evaluated through the transcript's compiled
/// tap matrices, and the MISR fed the whole read word bit-sliced —
/// exactly lfsr::Misr::shift, which folds input bit b into state bit b.
/// Structure and abort accounting mirror the single-plane loop below.
template <typename W>
PackedVerdictT<W> run_prt_packed_word(mem::PackedFaultRamT<W>& ram,
                                      const OpTranscript& t,
                                      const PackedRunOptions& options,
                                      PackedScratchT<W>& scratch) {
  const mem::Addr n = t.n;
  const unsigned m = t.width;
  const bool use_misr = t.misr_poly != 0;
  const unsigned misr_width =
      use_misr ? static_cast<unsigned>(poly_degree(t.misr_poly)) : 0;
  if (scratch.misr.size() < misr_width) scratch.misr.resize(misr_width);
  if (scratch.planes.size() < 2 * static_cast<std::size_t>(m)) {
    scratch.planes.resize(2 * static_cast<std::size_t>(m));
  }
  W* misr = scratch.misr.data();
  W* w = scratch.planes.data();       // read word, one per plane
  W* fb = scratch.planes.data() + m;  // feedback accumulator

  const W active = ram.active_mask();
  PackedVerdictT<W> verdict;
  W mismatch{};
  W pending = active;

  auto broadcast_write = [&](mem::Addr addr, gf::Elem golden) {
    for (unsigned b = 0; b < m; ++b) {
      w[b] = mem::lane_broadcast<W>(static_cast<unsigned>((golden >> b) & 1U));
    }
    ram.write_word(addr, w);
  };
  auto compare = [&](mem::Addr addr, gf::Elem golden) {
    ram.read_word(addr, w);
    for (unsigned b = 0; b < m; ++b) {
      mismatch |= w[b] ^ mem::lane_broadcast<W>(
                             static_cast<unsigned>((golden >> b) & 1U));
    }
  };

  for (const PrtIterSpan& it : t.iterations) {
    const OpRec* traj = t.recs.data() + it.traj_begin;
    const unsigned kk = it.k;
    if (use_misr) std::fill_n(misr, misr_width, W{});
    // Bit-sliced MISR shift of an m-bit input word: register shift
    // first, then fold input plane b into state plane b (Misr::shift
    // XORs the whole masked input word into the state).
    auto misr_shift = [&](const W* input) {
      const W msb = misr[misr_width - 1];
      for (unsigned b = misr_width; b-- > 1;) {
        misr[b] = misr[b - 1] ^ (((t.misr_poly >> b) & 1U) ? msb : W{});
      }
      misr[0] = ((t.misr_poly & 1U) != 0) ? msb : W{};
      const unsigned fold = std::min(m, misr_width);
      for (unsigned b = 0; b < fold; ++b) misr[b] ^= input[b];
    };

    // Initialization: broadcast the seed words to every lane.
    for (unsigned j = 0; j < kk; ++j) {
      broadcast_write(traj[j].addr, traj[j].golden);
    }

    // Sweep: per tap, feedback plane r accumulates the XOR of the read
    // planes selected by tap matrix row r (constant multiply over
    // GF(2^m) as plane-wide XORs); the field addition across taps is
    // plane-wise XOR too.
    for (mem::Addr q = 0; q + kk < n; ++q) {
      std::fill_n(fb, m, W{});
      for (unsigned j = 0; j < kk; ++j) {
        ram.read_word(traj[q + j].addr, w);
        if (use_misr) misr_shift(w);
        if ((it.fb_mask >> j) & 1U) {
          const std::uint32_t* rows =
              it.tap_rows.data() + static_cast<std::size_t>(j) * m;
          for (unsigned r = 0; r < m; ++r) {
            W acc{};
            // The tap-matrix row is a scalar plane-selection mask, but
            // it iterates through the same set-lane walker as the lane
            // masks so no raw bit twiddling leaks out of
            // mem/lane_word.hpp.
            mem::for_each_set_lane(static_cast<std::uint64_t>(rows[r]),
                                   [&](unsigned p) { acc ^= w[p]; });
            fb[r] ^= acc;
          }
        }
      }
      ram.write_word(traj[q + kk].addr, fb);
    }

    // Verdict: Fin read-back against Fin*, Init re-read against the
    // seed — any lane deviating in any plane is detected.
    for (unsigned j = 0; j < kk; ++j) {
      ram.read_word(traj[n - kk + j].addr, w);
      for (unsigned b = 0; b < m; ++b) {
        mismatch |= w[b] ^ mem::lane_broadcast<W>(static_cast<unsigned>(
                               (traj[n - kk + j].golden >> b) & 1U));
      }
      if (use_misr) misr_shift(w);
    }
    for (unsigned j = 0; j < kk; ++j) {
      ram.read_word(traj[j].addr, w);
      for (unsigned b = 0; b < m; ++b) {
        mismatch |= w[b] ^ mem::lane_broadcast<W>(
                               static_cast<unsigned>((traj[j].golden >> b) & 1U));
      }
      if (use_misr) misr_shift(w);
    }

    if (it.has_verify) {
      // The pause advances the packed clock so retention lanes decay
      // analytically at the first verify read past the boundary.
      if (it.pause_ticks != 0) ram.advance_time(it.pause_ticks);
      const OpRec* img = t.recs.data() + it.verify_begin;
      for (mem::Addr a = 0; a < n; ++a) {
        compare(img[a].addr, img[a].golden);
        if (options.early_abort && !mem::lane_any(pending & ~mismatch)) break;
      }
    }
    if (use_misr) {
      for (unsigned b = 0; b < misr_width; ++b) {
        mismatch |= misr[b] ^ mem::lane_broadcast<W>(static_cast<unsigned>(
                                  (it.misr_expected >> b) & 1U));
      }
    }

    if (options.early_abort) {
      const W newly = pending & mismatch;
      verdict.scalar_ops +=
          static_cast<std::uint64_t>(mem::lane_popcount(newly)) * it.ops_end();
      pending &= ~mismatch;
      if (!mem::lane_any(pending)) {
        verdict.detected = mismatch;
        return verdict;
      }
    }
  }
  const W full = options.early_abort ? pending : active;
  verdict.scalar_ops +=
      static_cast<std::uint64_t>(mem::lane_popcount(full)) * t.total_ops();
  verdict.detected = mismatch;
  return verdict;
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
  if (t.width > 1) return run_prt_packed_word(ram, t, options, scratch);
  const mem::Addr n = t.n;
  const bool use_misr = t.misr_poly != 0;
  const unsigned misr_width =
      use_misr ? static_cast<unsigned>(poly_degree(t.misr_poly)) : 0;
  if (scratch.misr.size() < misr_width) scratch.misr.resize(misr_width);
  W* misr = scratch.misr.data();

  const W active = ram.active_mask();
  PackedVerdictT<W> verdict;
  W mismatch{};
  // Active lanes whose mismatch has not latched yet; a detected lane
  // is retired immediately (its verdict is final), and the run stops
  // once every active lane is retired.
  W pending = active;

  for (const PrtIterSpan& it : t.iterations) {
    const OpRec* traj = t.recs.data() + it.traj_begin;
    const unsigned kk = it.k;
    // The lanes' independent MISRs, bit-sliced: state bit b of all
    // lanes lives in misr[b], so one shift costs O(width) lane-wide
    // XORs instead of per-lane scalar shifts.  Mirrors
    // lfsr::Misr::shift exactly.
    if (use_misr) std::fill_n(misr, misr_width, W{});
    auto misr_shift = [&](const W& input) {
      const W msb = misr[misr_width - 1];
      for (unsigned b = misr_width; b-- > 1;) {
        misr[b] = misr[b - 1] ^ (((t.misr_poly >> b) & 1U) ? msb : W{});
      }
      misr[0] = ((((t.misr_poly & 1U) != 0) ? msb : W{})) ^ input;
    };

    // Initialization: broadcast the seed values to every lane.
    for (unsigned j = 0; j < kk; ++j) {
      ram.write(traj[j].addr, mem::lane_broadcast<W>(traj[j].golden));
    }

    // Sweep: each lane's feedback is the XOR of its own window reads
    // selected by the transcript's feedback mask (Eq. 1 over GF(2)),
    // accumulated inline — no window buffer.  Nothing latches during
    // the sweep, so there is no abort point inside it.
    for (mem::Addr q = 0; q + kk < n; ++q) {
      W fb{};
      for (unsigned j = 0; j < kk; ++j) {
        const W w = ram.read(traj[q + j].addr);
        if (use_misr) misr_shift(w);
        if ((it.fb_mask >> j) & 1U) fb ^= w;
      }
      ram.write(traj[q + kk].addr, fb);
    }

    // Verdict: Fin read-back against Fin*, Init re-read against the
    // seed — any deviating lane is detected.
    for (unsigned j = 0; j < kk; ++j) {
      const W raw = ram.read(traj[n - kk + j].addr);
      mismatch |= raw ^ mem::lane_broadcast<W>(traj[n - kk + j].golden);
      if (use_misr) misr_shift(raw);
    }
    for (unsigned j = 0; j < kk; ++j) {
      const W raw = ram.read(traj[j].addr);
      mismatch |= raw ^ mem::lane_broadcast<W>(traj[j].golden);
      if (use_misr) misr_shift(raw);
    }

    if (it.has_verify) {
      // The pause advances the packed clock: retention lanes decay
      // analytically at the first verify read past the boundary.
      if (it.pause_ticks != 0) ram.advance_time(it.pause_ticks);
      const OpRec* img = t.recs.data() + it.verify_begin;
      for (mem::Addr a = 0; a < n; ++a) {
        mismatch |=
            ram.read(img[a].addr) ^ mem::lane_broadcast<W>(img[a].golden);
        // Once every pending lane has latched, the rest of the verify
        // pass cannot change any verdict (the latch is monotone and
        // verify reads do not feed the MISR) — skip it.  The reported
        // ops stay the scalar-equivalent complete-iteration count.
        if (options.early_abort && !mem::lane_any(pending & ~mismatch)) break;
      }
    }
    if (use_misr) {
      // Lanes whose signature differs from the golden scalar signature.
      for (unsigned b = 0; b < misr_width; ++b) {
        mismatch |= misr[b] ^ mem::lane_broadcast<W>(static_cast<unsigned>(
                                  (it.misr_expected >> b) & 1U));
      }
    }

    if (options.early_abort) {
      // Lanes that latched this iteration ran, scalar-equivalently,
      // every iteration up to and including this one — the
      // transcript's abort-op prefix sum.
      const W newly = pending & mismatch;
      verdict.scalar_ops +=
          static_cast<std::uint64_t>(mem::lane_popcount(newly)) * it.ops_end();
      pending &= ~mismatch;
      if (!mem::lane_any(pending)) {
        verdict.detected = mismatch;
        return verdict;
      }
    }
  }
  // Remaining lanes (all active lanes when early_abort is off) ran the
  // complete scheme.
  const W full = options.early_abort ? pending : active;
  verdict.scalar_ops +=
      static_cast<std::uint64_t>(mem::lane_popcount(full)) * t.total_ops();
  verdict.detected = mismatch;
  return verdict;
}

template PackedVerdictT<mem::LaneWord> run_prt_packed(
    mem::PackedFaultRamT<mem::LaneWord>&, const OpTranscript&,
    const PackedRunOptions&, PackedScratchT<mem::LaneWord>&);
template PackedVerdictT<mem::WideWord<8>> run_prt_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const OpTranscript&,
    const PackedRunOptions&, PackedScratchT<mem::WideWord<8>>&);

PackedVerdict run_prt_packed(mem::PackedFaultRam& ram,
                             const PrtScheme& scheme,
                             const PrtOracle& oracle,
                             const PackedRunOptions& options) {
  assert(oracle.n == ram.size());
  const OpTranscript transcript = make_op_transcript(scheme, oracle);
  PackedScratch scratch;
  return run_prt_packed(ram, transcript, options, scratch);
}

std::uint64_t run_prt_packed(mem::PackedFaultRam& ram,
                             const PrtScheme& scheme,
                             const PrtOracle& oracle) {
  return run_prt_packed(ram, scheme, oracle, PackedRunOptions{}).detected;
}

}  // namespace prt::core
