#include "core/op_transcript.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "gf/const_mult.hpp"
#include "lfsr/lfsr.hpp"

namespace prt::core {

OpTranscript make_op_transcript(const PrtScheme& scheme,
                                const PrtOracle& oracle) {
  assert(oracle.iterations.size() == scheme.iterations.size());
  const mem::Addr n = oracle.n;
  const gf::GF2m field(scheme.field_modulus);

  OpTranscript t;
  t.n = n;
  t.misr_poly = scheme.misr_poly;
  t.width = field.m();
  std::size_t rec_count = 0;
  for (const SchemeIteration& it : scheme.iterations) {
    rec_count += n + (it.config.verify_pass ? n : 0);
  }
  t.recs.resize(rec_count);
  t.iterations.reserve(scheme.iterations.size());

  std::size_t cursor = 0;
  for (std::size_t i = 0; i < scheme.iterations.size(); ++i) {
    const SchemeIteration& it = scheme.iterations[i];
    const PiOracle& orc = oracle.iterations[i];
    const unsigned kk = static_cast<unsigned>(it.g.size() - 1);
    // A malformed scheme must fail loudly in release campaigns too
    // (same precedent as FaultyRam::inject): n <= k would underflow
    // the sweep bounds and silently corrupt every verdict.
    if (kk < 1 || kk > 64 || n <= kk) {
      throw std::invalid_argument(
          "make_op_transcript: need 1 <= k <= 64 < n, got k = " +
          std::to_string(kk) + ", n = " + std::to_string(n));
    }
    assert(orc.trajectory.size() == n);
    assert(orc.fin_expected.size() == kk);
    assert(!it.config.verify_pass || orc.image.size() == n);

    PrtIterSpan span;
    span.k = kk;
    span.traj_begin = cursor;
    // The golden sequence in sweep order: seq[0..k) is the seed, the
    // rest the virtual LFSR's output — everything the Fin/Init
    // read-back compares against lives at its own trajectory position.
    lfsr::WordLfsr model(field, it.g);
    model.seed(it.config.init);
    const std::vector<gf::Elem> seq = model.sequence(n);
    const Trajectory& traj = orc.trajectory;
    for (mem::Addr q = 0; q < n; ++q) {
      t.recs[cursor + q] = {traj.at(q), seq[q]};
    }
    // The read-back goldens (sequence tail) equal the oracle's
    // jump-ahead Fin* by construction — the live path compares against
    // the oracle, so pin the equivalence in debug builds.
    for (unsigned j = 0; j < kk; ++j) {
      assert(t.recs[cursor + n - kk + j].golden == orc.fin_expected[j]);
    }
    cursor += n;

    span.has_verify = it.config.verify_pass;
    span.verify_begin = cursor;
    if (it.config.verify_pass) {
      for (mem::Addr a = 0; a < n; ++a) {
        t.recs[cursor + a] = {a, orc.image[a]};
      }
      cursor += n;
    }

    // Feedback selection: window position j carries the read of
    // trajectory position q + j, which the generator taps as g[k - j].
    for (unsigned j = 0; j < kk; ++j) {
      if (it.g[kk - j] != 0) span.fb_mask |= std::uint64_t{1} << j;
    }
    // Over GF(2^m) each tap multiplies by the constant g[k - j] — a
    // GF(2)-linear map, compiled to its m x m bit matrix so both
    // replays evaluate it with XORs only (the paper's own argument for
    // constant multipliers in the BIST hardware).
    if (t.width > 1) {
      span.tap_rows.assign(static_cast<std::size_t>(kk) * t.width, 0);
      for (unsigned j = 0; j < kk; ++j) {
        const gf::Elem c = it.g[kk - j];
        if (c == 0) continue;
        const gf::MatrixGF2 mtx = gf::multiplier_matrix(field, c);
        for (unsigned r = 0; r < t.width; ++r) {
          std::uint32_t row = 0;
          for (unsigned p = 0; p < t.width; ++p) {
            if (mtx.get(r, p)) row |= std::uint32_t{1} << p;
          }
          span.tap_rows[static_cast<std::size_t>(j) * t.width + r] = row;
        }
      }
    }
    span.misr_expected = orc.misr_expected;
    span.pause_ticks = it.config.pause_ticks;

    // Abort-op prefix sums: a scalar single-port run of this iteration
    // issues k seed writes, (n - k) windows of k reads + 1 feedback
    // write, 2k read-back reads, and n verify reads when enabled.
    t.total_writes += kk + (n - kk);
    t.total_reads += static_cast<std::uint64_t>(n - kk) * kk + 2 * kk +
                     (it.config.verify_pass ? n : 0);
    span.reads_end = t.total_reads;
    span.writes_end = t.total_writes;
    t.iterations.push_back(span);
  }
  assert(cursor == t.recs.size());
  return t;
}

}  // namespace prt::core
