// The lane-word abstraction (mem/lane_word.hpp) and its wide
// instantiations.
//
// Everything the packed fault paths assume about a lane word is pinned
// here, per width: the helper identities (broadcast, single-lane bit,
// test/assign round trips, popcount, low masks, ascending set-lane
// iteration), the WideWord limb layout (lane L = limb L/64, bit L%64,
// limb 0 bit-compatible with the uint64 word) and the width-generic
// PackedVerdictT accessors.  That a replay's lane verdicts do not
// depend on the lane word is the differential fuzzer's to hold
// (tests/test_fuzz_campaign.cpp): it runs 512- and 64-lane batches of
// both replays against the scalar reference.
#include "mem/lane_word.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/op_transcript.hpp"

namespace prt {
namespace {

template <typename W>
class LaneWordTyped : public ::testing::Test {};

using Wide = mem::WideWord<8>;
using LaneWidths = ::testing::Types<mem::LaneWord, Wide>;
TYPED_TEST_SUITE(LaneWordTyped, LaneWidths);

/// Deterministic per-lane bit pattern, width-independent: lane L of
/// word(seed) is the same bit at every width that has a lane L.
bool reference_bit(std::uint64_t seed, unsigned lane) {
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ULL + lane * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 29;
  return (x & 1U) != 0;
}

template <typename W>
W reference_word(std::uint64_t seed) {
  W w{};
  for (unsigned lane = 0; lane < mem::LaneTraits<W>::kLanes; ++lane) {
    mem::lane_assign(w, lane, reference_bit(seed, lane));
  }
  return w;
}

TYPED_TEST(LaneWordTyped, BroadcastAndLowMaskIdentities) {
  using W = TypeParam;
  constexpr unsigned kLanes = mem::LaneTraits<W>::kLanes;
  const W zeros = mem::lane_broadcast<W>(0);
  const W ones = mem::lane_broadcast<W>(1);
  EXPECT_FALSE(mem::lane_any(zeros));
  EXPECT_EQ(mem::lane_popcount(zeros), 0u);
  EXPECT_EQ(mem::lane_popcount(ones), kLanes);
  EXPECT_EQ(zeros, W{});
  EXPECT_EQ(~ones, W{});
  EXPECT_EQ(mem::lane_mask_low<W>(0), W{});
  EXPECT_EQ(mem::lane_mask_low<W>(kLanes), ones);
  for (const unsigned count : {1u, 7u, 63u, std::min(64u, kLanes),
                               std::min(65u, kLanes), kLanes - 1, kLanes}) {
    const W mask = mem::lane_mask_low<W>(count);
    EXPECT_EQ(mem::lane_popcount(mask), count);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      EXPECT_EQ(mem::lane_test(mask, lane), lane < count)
          << "count=" << count << " lane=" << lane;
    }
  }
}

TYPED_TEST(LaneWordTyped, LaneBitTestAssignRoundTrip) {
  using W = TypeParam;
  constexpr unsigned kLanes = mem::LaneTraits<W>::kLanes;
  W acc{};
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    const W bit = mem::lane_bit<W>(lane);
    EXPECT_EQ(mem::lane_popcount(bit), 1u);
    EXPECT_TRUE(mem::lane_any(bit));
    for (unsigned other = 0; other < kLanes; ++other) {
      EXPECT_EQ(mem::lane_test(bit, other), other == lane);
    }
    W assigned{};
    mem::lane_assign(assigned, lane, true);
    EXPECT_EQ(assigned, bit);
    mem::lane_assign(assigned, lane, false);
    EXPECT_EQ(assigned, W{});
    acc |= bit;
  }
  EXPECT_EQ(acc, mem::lane_broadcast<W>(1));
}

TYPED_TEST(LaneWordTyped, BitwiseOpsMatchPerLaneReference) {
  using W = TypeParam;
  constexpr unsigned kLanes = mem::LaneTraits<W>::kLanes;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const W a = reference_word<W>(seed);
    const W b = reference_word<W>(seed + 100);
    const W land = a & b;
    const W lor = a | b;
    const W lxor = a ^ b;
    const W lnot = ~a;
    unsigned expect_pop = 0;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      const bool av = reference_bit(seed, lane);
      const bool bv = reference_bit(seed + 100, lane);
      EXPECT_EQ(mem::lane_test(a, lane), av);
      EXPECT_EQ(mem::lane_test(land, lane), av && bv);
      EXPECT_EQ(mem::lane_test(lor, lane), av || bv);
      EXPECT_EQ(mem::lane_test(lxor, lane), av != bv);
      EXPECT_EQ(mem::lane_test(lnot, lane), !av);
      expect_pop += av ? 1U : 0U;
    }
    EXPECT_EQ(mem::lane_popcount(a), expect_pop);
    // Compound assignment agrees with the binary forms.
    W c = a;
    c &= b;
    EXPECT_EQ(c, land);
    c = a;
    c |= b;
    EXPECT_EQ(c, lor);
    c = a;
    c ^= b;
    EXPECT_EQ(c, lxor);
    // De Morgan at full lane width.
    EXPECT_EQ(~(a & b), ~a | ~b);
    EXPECT_EQ(a ^ b, (a | b) & ~(a & b));
  }
}

TYPED_TEST(LaneWordTyped, ForEachSetLaneVisitsSetLanesAscending) {
  using W = TypeParam;
  constexpr unsigned kLanes = mem::LaneTraits<W>::kLanes;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const W w = reference_word<W>(seed);
    std::vector<unsigned> visited;
    mem::for_each_set_lane(w, [&](unsigned lane) { visited.push_back(lane); });
    EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
    EXPECT_EQ(visited.size(), mem::lane_popcount(w));
    std::size_t i = 0;
    for (unsigned lane = 0; lane < kLanes; ++lane) {
      if (!mem::lane_test(w, lane)) continue;
      ASSERT_LT(i, visited.size());
      EXPECT_EQ(visited[i++], lane);
    }
  }
  // The empty word visits nothing.
  bool called = false;
  mem::for_each_set_lane(W{}, [&](unsigned) { called = true; });
  EXPECT_FALSE(called);
}

// Lane L of a WideWord lives in limb L/64, bit L%64, so limb 0 is
// bit-compatible with the 64-lane uint64 word — the layout every
// lane-indexed side structure (fault metadata, batch maps) assumes.
TEST(LaneWord, WideLimbLayoutMatchesUint64LowLanes) {
  for (const unsigned lane : {0u, 1u, 5u, 63u}) {
    EXPECT_EQ(mem::lane_bit<Wide>(lane).limb[0],
              mem::lane_bit<mem::LaneWord>(lane));
  }
  for (const unsigned lane : {64u, 100u, 191u, 255u, 256u, 511u}) {
    const Wide bit = mem::lane_bit<Wide>(lane);
    for (unsigned k = 0; k < 8; ++k) {
      EXPECT_EQ(bit.limb[k],
                k == lane / 64 ? std::uint64_t{1} << (lane % 64) : 0u)
          << "lane " << lane << " limb " << k;
    }
  }
  EXPECT_EQ(mem::LaneTraits<mem::LaneWord>::kLanes, 64u);
  EXPECT_EQ(mem::LaneTraits<Wide>::kLanes, 512u);
  static_assert(!mem::is_wide_lane_word_v<mem::LaneWord>);
  static_assert(mem::is_wide_lane_word_v<Wide>);
}

// --- width-generic PackedVerdictT accessors --------------------------------

TYPED_TEST(LaneWordTyped, PackedVerdictAccessorsAreWidthGeneric) {
  using W = TypeParam;
  constexpr unsigned kLanes = mem::LaneTraits<W>::kLanes;
  core::PackedVerdictT<W> verdict;
  EXPECT_EQ(verdict.detected_count(), 0u);
  const unsigned lanes[] = {0u, 3u, kLanes / 2, kLanes - 1};
  for (const unsigned lane : lanes) mem::lane_assign(verdict.detected, lane, true);
  EXPECT_EQ(verdict.detected_count(), 4u);
  for (unsigned lane = 0; lane < kLanes; ++lane) {
    const bool expect =
        std::find(std::begin(lanes), std::end(lanes), lane) != std::end(lanes);
    EXPECT_EQ(verdict.lane_detected(lane), expect) << "lane " << lane;
  }
  mem::lane_assign(verdict.detected, 3, false);
  EXPECT_EQ(verdict.detected_count(), 3u);
  EXPECT_FALSE(verdict.lane_detected(3));
}

}  // namespace
}  // namespace prt
