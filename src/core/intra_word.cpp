#include "core/intra_word.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace prt::core {

namespace {

gf::GF2m gf2() { return gf::GF2m(0b11); }

}  // namespace

std::vector<gf::Elem> plane_init(const std::vector<gf::Elem>& plane_g,
                                 unsigned plane) {
  lfsr::WordLfsr model(gf2(), plane_g);
  const unsigned k = model.k();
  // Non-degenerate base state 0...01 advanced by `plane` steps.
  std::vector<gf::Elem> base(k, 0);
  base.back() = 1;
  model.seed(base);
  for (unsigned s = 0; s < plane; ++s) model.step();
  return {model.state().begin(), model.state().end()};
}

void validate_intra_word(const IntraWordConfig& config, mem::Addr n,
                         unsigned m) {
  if (m < 2 || m > 32) {
    throw std::invalid_argument("IntraWord: word width m = " +
                                std::to_string(m) + " outside [2, 32]");
  }
  const std::vector<gf::Elem>& g = config.plane_g;
  const std::size_t k = g.empty() ? 0 : g.size() - 1;
  if (k < 1 || k > 32) {
    throw std::invalid_argument("IntraWord: plane generator degree k = " +
                                std::to_string(k) + " outside [1, 32]");
  }
  for (std::size_t j = 0; j <= k; ++j) {
    if (g[j] > 1) {
      throw std::invalid_argument(
          "IntraWord: plane generator coefficient g" + std::to_string(j) +
          " = " + std::to_string(g[j]) + " is not a GF(2) bit");
    }
  }
  if (g.front() == 0 || g.back() == 0) {
    const std::size_t j = g.front() == 0 ? 0 : k;
    throw std::invalid_argument("IntraWord: plane generator g" +
                                std::to_string(j) +
                                " = 0; g0 and gk must be 1");
  }
  if (n <= k) {
    throw std::invalid_argument("IntraWord: need n > k (got n = " +
                                std::to_string(n) +
                                ", k = " + std::to_string(k) + ")");
  }
}

IntraWordOracle::IntraWordOracle(const IntraWordConfig& config, mem::Addr n,
                                 unsigned m)
    : mode_(config.mode), n_(n), m_(m) {
  validate_intra_word(config, n, m);
  k_ = static_cast<unsigned>(config.plane_g.size() - 1);
  for (unsigned j = 1; j <= k_; ++j) {
    if (config.plane_g[j] != 0) taps_.push_back(k_ - j);
  }

  // Expected per-plane Fin: plane automaton advanced n - k steps.
  plane_seeds_.reserve(m);
  fin_expected_.assign(m, 0);
  for (unsigned b = 0; b < m; ++b) {
    plane_seeds_.push_back(plane_init(config.plane_g, b));
    lfsr::WordLfsr model(gf2(), config.plane_g);
    model.seed(plane_seeds_.back());
    model.jump(n - k_);
    for (unsigned j = 0; j < k_; ++j) {
      fin_expected_[b] |= static_cast<std::uint32_t>(model.state()[j]) << j;
    }
  }

  const std::uint64_t sweeps = n - k_;
  if (mode_ == IntraWordMode::kParallelTrajectories) {
    trajectories_.push_back(
        Trajectory::make(config.trajectory, n, config.seed));
    word_init_.assign(k_, 0);
    for (unsigned j = 0; j < k_; ++j) {
      for (unsigned b = 0; b < m; ++b) {
        word_init_[j] |= static_cast<mem::Word>(plane_seeds_[b][j]) << b;
      }
    }
    // k init writes, k reads and one write per sub-iteration, k Fin reads.
    reads_ = sweeps * k_ + k_;
    writes_ = k_ + sweeps;
  } else {
    for (unsigned b = 0; b < m; ++b) {
      trajectories_.push_back(Trajectory::make(
          TrajectoryKind::kRandom, n,
          config.seed + 0x9e3779b97f4a7c15ULL * (b + 1)));
    }
    // Per plane: every bit write is a read-modify-write, so the k init
    // writes and each sub-iteration's write read once more.
    reads_ = m * (k_ + sweeps * (k_ + 1) + k_);
    writes_ = m * (k_ + sweeps);
  }
}

void IntraWordOracle::check_geometry(mem::Addr n, unsigned m) const {
  if (n != n_ || m != m_) {
    throw std::invalid_argument(
        "IntraWordOracle: built for n = " + std::to_string(n_) +
        ", m = " + std::to_string(m_) + ", run on n = " + std::to_string(n) +
        ", m = " + std::to_string(m));
  }
}

IntraWordResult IntraWordOracle::run(mem::Memory& memory) const {
  check_geometry(memory.size(), memory.width());
  const unsigned k = k_;
  const mem::Addr n = n_;
  IntraWordResult result;
  result.fin.assign(m_, 0);
  result.fin_expected = fin_expected_;
  result.reads = reads_;
  result.writes = writes_;

  if (mode_ == IntraWordMode::kParallelTrajectories) {
    // One shared trajectory; each access is word-wide, feedback applied
    // bitwise (all plane automatons share g, so the word feedback is
    // just the GF(2) combination applied per bit-plane in parallel).
    const Trajectory& traj = trajectories_.front();
    for (unsigned j = 0; j < k; ++j) {
      memory.write(traj.at(j), word_init_[j], 0);
    }
    std::vector<mem::Word> window(k);
    for (mem::Addr q = 0; q + k < n; ++q) {
      for (unsigned j = 0; j < k; ++j) {
        window[j] = memory.read(traj.at(q + j), 0);
      }
      mem::Word fb = 0;
      for (const unsigned t : taps_) fb ^= window[t];
      memory.write(traj.at(q + k), fb, 0);
    }
    for (unsigned j = 0; j < k; ++j) {
      const mem::Word w = memory.read(traj.at(n - k + j), 0);
      for (unsigned b = 0; b < m_; ++b) {
        result.fin[b] |= static_cast<std::uint32_t>((w >> b) & 1U) << j;
      }
    }
  } else {
    // Independent trajectories: plane b sweeps its own permutation with
    // masked read-modify-write accesses (the programmable-trajectory
    // hardware of §2).
    std::vector<unsigned> window(k);
    for (unsigned b = 0; b < m_; ++b) {
      const Trajectory& traj = trajectories_[b];
      const std::vector<gf::Elem>& init = plane_seeds_[b];
      const mem::Word mask = mem::Word{1} << b;
      auto write_bit = [&](mem::Addr a, unsigned bit) {
        const mem::Word old = memory.read(a, 0);
        memory.write(a, bit ? (old | mask) : (old & ~mask), 0);
      };
      auto read_bit = [&](mem::Addr a) -> unsigned {
        return (memory.read(a, 0) >> b) & 1U;
      };
      for (unsigned j = 0; j < k; ++j) write_bit(traj.at(j), init[j]);
      for (mem::Addr q = 0; q + k < n; ++q) {
        for (unsigned j = 0; j < k; ++j) window[j] = read_bit(traj.at(q + j));
        unsigned fb = 0;
        for (const unsigned t : taps_) fb ^= window[t];
        write_bit(traj.at(q + k), fb);
      }
      for (unsigned j = 0; j < k; ++j) {
        result.fin[b] |=
            static_cast<std::uint32_t>(read_bit(traj.at(n - k + j))) << j;
      }
    }
  }

  result.pass = result.fin == result.fin_expected;
  return result;
}

template <typename W>
PackedVerdictT<W> IntraWordOracle::run_packed(
    mem::PackedFaultRamT<W>& ram) const {
  check_geometry(ram.size(), ram.width());
  const unsigned k = k_;
  const mem::Addr n = n_;
  // is_tap[j]: window entry j feeds the sweep's feedback.
  std::vector<char> is_tap(k, 0);
  for (const unsigned t : taps_) is_tap[t] = 1;
  // One cell's planes, as read_word fills and write_word takes them.
  std::vector<W> word(m_);
  W mismatch{};
  // Lanes whose Fin bit j of plane b differs from the golden one.
  auto fin_deviates = [&](const W& value, unsigned b, unsigned j) {
    return value ^ mem::lane_broadcast<W>((fin_expected_[b] >> j) & 1U);
  };

  if (mode_ == IntraWordMode::kParallelTrajectories) {
    // Word-wide accesses on the shared trajectory; the feedback is the
    // plane-wise XOR of the tapped window words, accumulated as the
    // window is read.
    const Trajectory& traj = trajectories_.front();
    std::vector<W> fb(m_);
    for (unsigned j = 0; j < k; ++j) {
      for (unsigned b = 0; b < m_; ++b) {
        word[b] = mem::lane_broadcast<W>(plane_seeds_[b][j]);
      }
      ram.write_word(traj.at(j), word.data());
    }
    for (mem::Addr q = 0; q + k < n; ++q) {
      std::fill(fb.begin(), fb.end(), W{});
      for (unsigned j = 0; j < k; ++j) {
        ram.read_word(traj.at(q + j), word.data());
        if (is_tap[j] == 0) continue;
        for (unsigned b = 0; b < m_; ++b) fb[b] ^= word[b];
      }
      ram.write_word(traj.at(q + k), fb.data());
    }
    for (unsigned j = 0; j < k; ++j) {
      ram.read_word(traj.at(n - k + j), word.data());
      for (unsigned b = 0; b < m_; ++b) {
        mismatch |= fin_deviates(word[b], b, j);
      }
    }
  } else {
    // Plane b sweeps its own trajectory.  Each bit write is run()'s
    // read-modify-write: read the word, replace plane b with the lane
    // word, write the word back.
    for (unsigned b = 0; b < m_; ++b) {
      const Trajectory& traj = trajectories_[b];
      auto write_bit = [&](mem::Addr a, const W& bit) {
        ram.read_word(a, word.data());
        word[b] = bit;
        ram.write_word(a, word.data());
      };
      auto read_bit = [&](mem::Addr a) {
        ram.read_word(a, word.data());
        return word[b];
      };
      for (unsigned j = 0; j < k; ++j) {
        write_bit(traj.at(j), mem::lane_broadcast<W>(plane_seeds_[b][j]));
      }
      for (mem::Addr q = 0; q + k < n; ++q) {
        W fb{};
        for (unsigned j = 0; j < k; ++j) {
          const W value = read_bit(traj.at(q + j));
          if (is_tap[j] != 0) fb ^= value;
        }
        write_bit(traj.at(q + k), fb);
      }
      for (unsigned j = 0; j < k; ++j) {
        mismatch |= fin_deviates(read_bit(traj.at(n - k + j)), b, j);
      }
    }
  }

  const W active = ram.active_mask();
  return {mismatch & active,
          static_cast<std::uint64_t>(mem::lane_popcount(active)) * ops()};
}

template PackedVerdictT<mem::LaneWord> IntraWordOracle::run_packed(
    mem::PackedFaultRamT<mem::LaneWord>&) const;
template PackedVerdictT<mem::WideWord<8>> IntraWordOracle::run_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&) const;

IntraWordResult run_intra_word(mem::Memory& memory,
                               const IntraWordConfig& config) {
  return IntraWordOracle(config, memory.size(), memory.width()).run(memory);
}

}  // namespace prt::core
