#include "core/pi_iteration.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "util/bitops.hpp"

namespace prt::core {

PiTester::PiTester(gf::GF2m field, std::vector<gf::Elem> g)
    : lfsr_(std::move(field), std::move(g)) {}

void PiTester::enable_misr(gf::Poly2 poly) {
  const int degree = poly_degree(poly);
  if (degree < 1 || degree > 63) {
    throw std::invalid_argument("PiTester::enable_misr: MISR polynomial " +
                                std::to_string(poly) + " has degree " +
                                std::to_string(degree) +
                                ", needs a degree in [1, 63]");
  }
  misr_poly_ = poly;
}

std::vector<gf::Elem> PiTester::expected_fin(
    mem::Addr n, std::span<const gf::Elem> init) const {
  assert(n > k());
  lfsr::WordLfsr model = lfsr_;
  model.seed(init);
  model.jump(n - k());
  return {model.state().begin(), model.state().end()};
}

std::vector<gf::Elem> PiTester::expected_image(mem::Addr n,
                                               const PiConfig& config) const {
  assert(config.init.size() == k());
  lfsr::WordLfsr model = lfsr_;
  model.seed(config.init);
  const std::vector<gf::Elem> seq = model.sequence(n);
  const Trajectory traj =
      Trajectory::make(config.trajectory, n, config.seed);
  std::vector<gf::Elem> image(n, 0);
  for (mem::Addr q = 0; q < n; ++q) image[traj.at(q)] = seq[q];
  return image;
}

bool PiTester::ring_closes(mem::Addr n) const {
  assert(n > k());
  return (n - k()) % period() == 0;
}

PiOracle PiTester::make_oracle(mem::Addr n, const PiConfig& config) const {
  const unsigned kk = k();
  assert(n > kk);
  assert(config.init.size() == kk);
  PiOracle oracle;
  oracle.n = n;
  oracle.trajectory = Trajectory::make(config.trajectory, n, config.seed);
  oracle.fin_expected = expected_fin(n, config.init);
  if (misr_poly_ == 0 && !config.verify_pass) return oracle;

  // Golden sequence in sweep order, shared by the image and the MISR
  // signature.
  lfsr::WordLfsr model = lfsr_;
  model.seed(config.init);
  const std::vector<gf::Elem> seq = model.sequence(n);
  if (config.verify_pass) {
    oracle.image.assign(n, 0);
    for (mem::Addr q = 0; q < n; ++q) {
      oracle.image[oracle.trajectory.at(q)] = seq[q];
    }
  }
  if (misr_poly_ != 0) {
    // Replay the fault-free read stream in the exact order run() reads
    // it: the k-wide sweep windows, the Fin read-back, the Init
    // re-read.  (The verify pass does not feed the MISR.)
    lfsr::Misr golden(misr_poly_);
    for (mem::Addr q = 0; q + kk < n; ++q) {
      for (unsigned j = 0; j < kk; ++j) golden.shift(seq[q + j]);
    }
    for (unsigned j = 0; j < kk; ++j) golden.shift(seq[n - kk + j]);
    for (unsigned j = 0; j < kk; ++j) golden.shift(seq[j]);
    oracle.misr_expected = golden.state();
  }
  return oracle;
}

PiResult PiTester::run(mem::Memory& memory, const PiConfig& config) const {
  return run(memory, config, make_oracle(memory.size(), config));
}

PiResult PiTester::run(mem::Memory& memory, const PiConfig& config,
                       const PiOracle& oracle) const {
  const mem::Addr n = memory.size();
  const unsigned kk = k();
  assert(memory.width() == field().m());
  assert(n > kk);
  assert(config.init.size() == kk);
  assert(oracle.n == n);
  assert(oracle.trajectory.size() == n);
  assert(oracle.fin_expected.size() == kk);
  assert(!config.verify_pass || oracle.image.size() == n);

  const Trajectory& traj = oracle.trajectory;
  PiResult result;
  lfsr::Misr misr(misr_poly_ != 0 ? misr_poly_ : gf::Poly2{0b111});

  // The sliding window lives on the stack for every practical k (the
  // schemes all use k = 2), so the sweep itself allocates nothing.
  gf::Elem window_buf[16];
  std::vector<gf::Elem> window_spill;
  gf::Elem* window = window_buf;
  if (kk > std::size(window_buf)) {
    window_spill.resize(kk);
    window = window_spill.data();
  }

  // Initialization: write d0..d_{k-1} into the first k visited cells.
  for (unsigned j = 0; j < kk; ++j) {
    memory.write(traj.at(j), config.init[j], 0);
    ++result.writes;
  }

  // Sweep: window reads + feedback write (Eq. 1).
  for (mem::Addr q = 0; q + kk < n; ++q) {
    for (unsigned j = 0; j < kk; ++j) {
      const mem::Word raw = memory.read(traj.at(q + j), 0);
      window[j] = static_cast<gf::Elem>(raw);
      ++result.reads;
      if (misr_poly_ != 0) misr.shift(raw);
    }
    const gf::Elem fb = lfsr_.feedback({window, kk});
    memory.write(traj.at(q + kk), fb, 0);
    ++result.writes;
  }

  // Verdict: read back the last k visited cells as the observed Fin,
  // and re-read the Init cells (paper §2: "comparing initial Init and
  // final Fin states") — the latter catches seed-cell corruptions that
  // happen after their only sweep read.
  result.fin.resize(kk);
  for (unsigned j = 0; j < kk; ++j) {
    const mem::Word raw = memory.read(traj.at(n - kk + j), 0);
    result.fin[j] = static_cast<gf::Elem>(raw);
    ++result.reads;
    if (misr_poly_ != 0) misr.shift(raw);
  }
  result.init_readback.resize(kk);
  for (unsigned j = 0; j < kk; ++j) {
    const mem::Word raw = memory.read(traj.at(j), 0);
    result.init_readback[j] = static_cast<gf::Elem>(raw);
    ++result.reads;
    if (misr_poly_ != 0) misr.shift(raw);
  }
  result.fin_expected = oracle.fin_expected;
  result.pass = result.fin == result.fin_expected &&
                std::equal(result.init_readback.begin(),
                           result.init_readback.end(), config.init.begin());

  if (config.verify_pass) {
    if (config.pause_ticks != 0) memory.advance_time(config.pause_ticks);
    for (mem::Addr a = 0; a < n; ++a) {
      const mem::Word raw = memory.read(a, 0);
      ++result.reads;
      if (static_cast<gf::Elem>(raw) != oracle.image[a]) {
        ++result.verify_mismatches;
      }
    }
    result.pass = result.pass && result.verify_mismatches == 0;
  }
  if (misr_poly_ != 0) {
    result.misr = misr.state();
    result.misr_expected = oracle.misr_expected;
    result.misr_pass = result.misr == result.misr_expected;
  }
  return result;
}

}  // namespace prt::core
