#include "gf/const_mult.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace prt::gf {

unsigned XorNetwork::depth() const {
  std::vector<unsigned> level(inputs + gates.size(), 0);
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const auto& g = gates[i];
    const unsigned la = g.a == kGroundSignal ? 0 : level[g.a];
    const unsigned lb = g.b == kGroundSignal ? 0 : level[g.b];
    level[inputs + i] = std::max(la, lb) + 1;
  }
  unsigned d = 0;
  for (std::uint32_t s : outputs) {
    if (s != kGroundSignal) d = std::max(d, level[s]);
  }
  return d;
}

std::uint64_t XorNetwork::eval(std::uint64_t in) const {
  // Input i is bit i of `in` and output r bit r of the result, so a
  // wider network has no packed word to read from or write to.
  if (inputs > 64) {
    throw std::invalid_argument(
        "XorNetwork::eval: " + std::to_string(inputs) +
        " inputs do not fit the 64-bit input word");
  }
  if (outputs.size() > 64) {
    throw std::invalid_argument(
        "XorNetwork::eval: " + std::to_string(outputs.size()) +
        " outputs do not fit the 64-bit output word");
  }
  std::vector<std::uint32_t> value(inputs + gates.size(), 0);
  for (std::uint32_t i = 0; i < inputs; ++i) {
    value[i] = static_cast<std::uint32_t>((in >> i) & 1U);
  }
  auto sig = [&](std::uint32_t s) -> std::uint32_t {
    return s == kGroundSignal ? 0U : value[s];
  };
  for (std::size_t i = 0; i < gates.size(); ++i) {
    value[inputs + i] = sig(gates[i].a) ^ sig(gates[i].b);
  }
  std::uint64_t out = 0;
  for (std::size_t r = 0; r < outputs.size(); ++r) {
    out |= std::uint64_t{sig(outputs[r])} << r;
  }
  return out;
}

MatrixGF2 multiplier_matrix(const GF2m& field, Elem c) {
  const unsigned m = field.m();
  MatrixGF2 mat(m, m);
  for (unsigned j = 0; j < m; ++j) {
    const Elem col = field.mul(c, Elem{1} << j);
    for (unsigned r = 0; r < m; ++r) {
      if ((col >> r) & 1U) mat.set(r, j, true);
    }
  }
  return mat;
}

namespace {

/// XORs the given signals together with a balanced tree, appending gates
/// to `net`; returns the signal holding the result (ground if empty).
std::uint32_t build_tree(XorNetwork& net, std::vector<std::uint32_t> sigs) {
  if (sigs.empty()) return XorNetwork::kGroundSignal;
  while (sigs.size() > 1) {
    std::vector<std::uint32_t> next;
    next.reserve((sigs.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < sigs.size(); i += 2) {
      net.gates.push_back({sigs[i], sigs[i + 1]});
      next.push_back(net.inputs + static_cast<std::uint32_t>(
                                      net.gates.size() - 1));
    }
    if (sigs.size() % 2 == 1) next.push_back(sigs.back());
    sigs = std::move(next);
  }
  return sigs[0];
}

}  // namespace

XorNetwork synthesize_naive(const MatrixGF2& matrix) {
  XorNetwork net;
  net.inputs = static_cast<std::uint32_t>(matrix.cols());
  net.outputs.resize(matrix.rows(), XorNetwork::kGroundSignal);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    std::vector<std::uint32_t> sigs;
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      if (matrix.get(r, c)) sigs.push_back(static_cast<std::uint32_t>(c));
    }
    net.outputs[r] = build_tree(net, std::move(sigs));
  }
  return net;
}

XorNetwork synthesize_cse(const MatrixGF2& matrix) {
  XorNetwork net;
  net.inputs = static_cast<std::uint32_t>(matrix.cols());
  net.outputs.resize(matrix.rows(), XorNetwork::kGroundSignal);

  // Each row is the set of signals still to be XORed for that output,
  // ascending: a fresh signal is larger than every existing one.
  // holders[s * words .. + words) is the set of rows holding signal s,
  // one bit per row, so a pair's row count is one AND and popcount per
  // 64 rows instead of a scan of every row.
  const std::size_t words = (matrix.rows() + 63) / 64;
  std::vector<std::vector<std::uint32_t>> rows(matrix.rows());
  std::vector<std::uint64_t> holders(matrix.cols() * words, 0);
  for (std::size_t r = 0; r < matrix.rows(); ++r) {
    for (std::size_t c = 0; c < matrix.cols(); ++c) {
      if (matrix.get(r, c)) {
        rows[r].push_back(static_cast<std::uint32_t>(c));
        holders[c * words + r / 64] |= std::uint64_t{1} << (r % 64);
      }
    }
  }
  auto rows_holding_both = [&](std::uint32_t a, std::uint32_t b) {
    int count = 0;
    for (std::size_t w = 0; w < words; ++w) {
      count += std::popcount(holders[a * words + w] & holders[b * words + w]);
    }
    return count;
  };

  // Paar's greedy CSE: while some signal pair appears in >= 2 rows,
  // materialize the most frequent pair (the first found on a tie) as a
  // gate and substitute it.
  while (true) {
    std::uint32_t best_a = 0;
    std::uint32_t best_b = 0;
    int best_count = 1;
    for (const auto& row : rows) {
      for (std::size_t i = 0; i < row.size(); ++i) {
        for (std::size_t j = i + 1; j < row.size(); ++j) {
          const int count = rows_holding_both(row[i], row[j]);
          if (count > best_count) {
            best_count = count;
            best_a = row[i];
            best_b = row[j];
          }
        }
      }
    }
    if (best_count < 2) break;
    net.gates.push_back({best_a, best_b});
    const std::uint32_t fresh =
        net.inputs + static_cast<std::uint32_t>(net.gates.size() - 1);
    // The rows holding both move from a and b to the fresh signal.
    holders.resize(holders.size() + words, 0);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t& a = holders[best_a * words + w];
      std::uint64_t& b = holders[best_b * words + w];
      const std::uint64_t both = a & b;
      holders[fresh * words + w] = both;
      a &= ~both;
      b &= ~both;
      for (std::uint64_t bits = both; bits != 0; bits &= bits - 1) {
        auto& row = rows[w * 64 + static_cast<std::size_t>(
                                      std::countr_zero(bits))];
        std::erase_if(row, [&](std::uint32_t s) {
          return s == best_a || s == best_b;
        });
        row.push_back(fresh);
      }
    }
  }

  for (std::size_t r = 0; r < rows.size(); ++r) {
    net.outputs[r] = build_tree(net, std::move(rows[r]));
  }
  return net;
}

FeedbackCost feedback_cost(const GF2m& field, const std::vector<Elem>& coeffs) {
  // coeffs holds g0..gk; g0 is the output tap of the generator
  // polynomial, not part of the feedback sum w = sum_{j>=1} g_j * r_j.
  FeedbackCost cost;
  std::size_t active_terms = 0;
  for (std::size_t j = 1; j < coeffs.size(); ++j) {
    const Elem c = coeffs[j];
    if (c == 0) continue;
    ++active_terms;
    if (c == 1) continue;  // identity needs no gates
    const XorNetwork net = synthesize_cse(multiplier_matrix(field, c));
    cost.multiplier_gates += net.gate_count();
  }
  if (active_terms > 1) {
    cost.adder_gates = (active_terms - 1) * field.m();
  }
  return cost;
}

}  // namespace prt::gf
