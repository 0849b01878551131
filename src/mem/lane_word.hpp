// The lane-word abstraction under every packed fault path.
//
// A lane word is a fixed-width bundle of independent 1-bit lanes: bit
// L is lane L's value, and the packed fault models
// (mem::PackedFaultRamT, core::run_prt_packed, march::run_march_packed,
// core::IntraWordOracle::run_packed) evaluate one fault per lane with
// plain bitwise ops.  Two families
// model it:
//
//  * LaneWord (std::uint64_t) — the 64-lane word; every lane op is
//    one ALU instruction;
//  * WideWord<K> (std::array<std::uint64_t, K>) — 64*K lanes.  All its
//    operators are straight-line per-limb folds with no carries and no
//    cross-limb flow, the shape the autovectorizer lowers to full-width
//    vector instructions.  The campaigns run WideWord<8> (512 lanes)
//    on every shard of at least 256 faults and LaneWord on thinner
//    ones (analysis/campaign_driver.hpp); on the plain build that pair
//    measured fastest, so no ISA flag or width knob selects another.
//
// Everything that touches raw lane-word bit twiddling — single-lane
// masks, broadcasts, popcounts, set-lane iteration — lives in the
// helpers below, and ONLY here: the packed simulation files are
// written against lane_broadcast / lane_bit / lane_test / ... so they
// compile unchanged at any width, and scripts/run_lint.py's lane-word
// lint flags raw uint64 lane arithmetic outside this header to keep
// the abstraction from eroding.
//
// Lane numbering of WideWord<K>: lane L lives in limb L / 64, bit
// L % 64 — limb 0 carries lanes [0, 64), limb 1 lanes [64, 128), etc,
// so the uint64_t word is bit-compatible with limb 0 and every
// lane-indexed structure (per-lane fault metadata, batch index maps)
// is width-agnostic.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <type_traits>

namespace prt::mem {

/// One bit per lane across the 64 packed memories — the narrow lane
/// word.
using LaneWord = std::uint64_t;

/// 64*K lanes as K carry-less uint64 limbs.  Bitwise ops are per-limb
/// folds the autovectorizer turns into full-width vector instructions;
/// there is deliberately no arithmetic (+, <<) on the whole word — the
/// packed models never need carries across lanes.
template <unsigned K>
struct WideWord {
  static_assert(K >= 2, "WideWord is the wider-than-64 path; use LaneWord");
  std::array<std::uint64_t, K> limb{};

  constexpr WideWord& operator&=(const WideWord& o) {
    for (unsigned k = 0; k < K; ++k) limb[k] &= o.limb[k];
    return *this;
  }
  constexpr WideWord& operator|=(const WideWord& o) {
    for (unsigned k = 0; k < K; ++k) limb[k] |= o.limb[k];
    return *this;
  }
  constexpr WideWord& operator^=(const WideWord& o) {
    for (unsigned k = 0; k < K; ++k) limb[k] ^= o.limb[k];
    return *this;
  }
  [[nodiscard]] friend constexpr WideWord operator&(WideWord a,
                                                    const WideWord& b) {
    a &= b;
    return a;
  }
  [[nodiscard]] friend constexpr WideWord operator|(WideWord a,
                                                    const WideWord& b) {
    a |= b;
    return a;
  }
  [[nodiscard]] friend constexpr WideWord operator^(WideWord a,
                                                    const WideWord& b) {
    a ^= b;
    return a;
  }
  [[nodiscard]] friend constexpr WideWord operator~(WideWord a) {
    for (unsigned k = 0; k < K; ++k) a.limb[k] = ~a.limb[k];
    return a;
  }
  [[nodiscard]] friend constexpr bool operator==(const WideWord&,
                                                 const WideWord&) = default;
};

/// Lane count and identification of the supported lane-word types.
template <typename W>
struct LaneTraits;

template <>
struct LaneTraits<std::uint64_t> {
  static constexpr unsigned kLanes = 64;
};

template <unsigned K>
struct LaneTraits<WideWord<K>> {
  static constexpr unsigned kLanes = 64 * K;
};

template <typename W>
inline constexpr bool is_wide_lane_word_v = !std::is_same_v<W, std::uint64_t>;

/// Broadcasts one data/golden bit to every lane — the bridge between
/// scalar golden values and lane-parallel compares/writes, shared by
/// every packed replay.  The default keeps the historical
/// lane_broadcast(bit) call sites on the 64-lane word.
template <typename W = LaneWord>
[[nodiscard]] constexpr W lane_broadcast(unsigned bit) {
  const std::uint64_t fill = bit != 0 ? ~std::uint64_t{0} : std::uint64_t{0};
  if constexpr (is_wide_lane_word_v<W>) {
    W r{};
    for (std::uint64_t& l : r.limb) l = fill;
    return r;
  } else {
    return fill;
  }
}

/// The word with only lane `lane` set.  Precondition: lane <
/// LaneTraits<W>::kLanes.
template <typename W = LaneWord>
[[nodiscard]] constexpr W lane_bit(unsigned lane) {
  if constexpr (is_wide_lane_word_v<W>) {
    W r{};
    r.limb[lane / 64] = std::uint64_t{1} << (lane % 64);
    return r;
  } else {
    return std::uint64_t{1} << lane;
  }
}

/// Lane `lane`'s bit of `x`.
template <typename W>
[[nodiscard]] constexpr bool lane_test(const W& x, unsigned lane) {
  if constexpr (is_wide_lane_word_v<W>) {
    return ((x.limb[lane / 64] >> (lane % 64)) & 1U) != 0;
  } else {
    return ((x >> lane) & 1U) != 0;
  }
}

/// Sets (value = true) or clears lane `lane` of `x` in place.
template <typename W>
constexpr void lane_assign(W& x, unsigned lane, bool value) {
  if constexpr (is_wide_lane_word_v<W>) {
    const std::uint64_t bit = std::uint64_t{1} << (lane % 64);
    std::uint64_t& l = x.limb[lane / 64];
    l = value ? (l | bit) : (l & ~bit);
  } else {
    const std::uint64_t bit = std::uint64_t{1} << lane;
    x = value ? (x | bit) : (x & ~bit);
  }
}

/// True when any lane of `x` is set — the width-generic `x != 0`.
template <typename W>
[[nodiscard]] constexpr bool lane_any(const W& x) {
  if constexpr (is_wide_lane_word_v<W>) {
    std::uint64_t acc = 0;
    for (const std::uint64_t l : x.limb) acc |= l;
    return acc != 0;
  } else {
    return x != 0;
  }
}

/// Number of set lanes.
template <typename W>
[[nodiscard]] constexpr unsigned lane_popcount(const W& x) {
  if constexpr (is_wide_lane_word_v<W>) {
    unsigned n = 0;
    for (const std::uint64_t l : x.limb) {
      n += static_cast<unsigned>(std::popcount(l));
    }
    return n;
  } else {
    return static_cast<unsigned>(std::popcount(x));
  }
}

/// The low `count` lanes set (count == kLanes -> all lanes).
/// Precondition: count <= LaneTraits<W>::kLanes.
template <typename W = LaneWord>
[[nodiscard]] constexpr W lane_mask_low(unsigned count) {
  if constexpr (is_wide_lane_word_v<W>) {
    W r{};
    for (unsigned k = 0; count != 0 && k < static_cast<unsigned>(r.limb.size());
         ++k) {
      const unsigned take = count >= 64 ? 64 : count;
      r.limb[k] = take == 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << take) - 1;
      count -= take;
    }
    return r;
  } else {
    return count == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
  }
}

/// Calls fn(lane) for every set lane of `m`, ascending — the per-lane
/// scatter loop of the packed fault models (coupling fire, decoder
/// remaps, retention latches).  Also serves scalar tap/feedback masks:
/// any unsigned mask converts to the 64-lane word.
template <typename Fn>
inline void for_each_set_lane(std::uint64_t m, Fn&& fn) {
  while (m != 0) {
    fn(static_cast<unsigned>(std::countr_zero(m)));
    m &= m - 1;
  }
}

template <unsigned K, typename Fn>
inline void for_each_set_lane(const WideWord<K>& m, Fn&& fn) {
  for (unsigned k = 0; k < K; ++k) {
    std::uint64_t l = m.limb[k];
    while (l != 0) {
      fn(64U * k + static_cast<unsigned>(std::countr_zero(l)));
      l &= l - 1;
    }
  }
}

}  // namespace prt::mem
