// Behavioural tests for every fault model (mem/fault_injector).
#include "mem/fault_injector.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mem/packed_fault_ram.hpp"

namespace prt::mem {
namespace {

// --- stuck-at faults ---------------------------------------------------

TEST(Saf, StuckAtZeroIgnoresWritesOfOne) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::saf({3, 0}, 0));
  ram.write(3, 1, 0);
  EXPECT_EQ(ram.read(3, 0), 0u);
}

TEST(Saf, StuckAtOneIgnoresWritesOfZero) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::saf({3, 0}, 1));
  ram.write(3, 0, 0);
  EXPECT_EQ(ram.read(3, 0), 1u);
}

TEST(Saf, OnlyTheFaultyBitSticks) {
  FaultyRam ram(8, 4);
  ram.inject(Fault::saf({2, 1}, 1));
  ram.write(2, 0b0000, 0);
  EXPECT_EQ(ram.read(2, 0), 0b0010u);
  ram.write(2, 0b1101, 0);
  EXPECT_EQ(ram.read(2, 0), 0b1111u);
}

TEST(Saf, HoldsFromInjectionBeforeAnyWrite) {
  // A stuck-at victim holds its value from the moment the defect
  // exists: a read that precedes every write already sees it.
  FaultyRam ram(8, 1);
  ram.inject(Fault::saf({3, 0}, 1));
  EXPECT_EQ(ram.peek(3), 1u);
  EXPECT_EQ(ram.read(3, 0), 1u);
  FaultyRam ram0(8, 1);
  ram0.poke(5, 1);
  ram0.inject(Fault::saf({5, 0}, 0));
  EXPECT_EQ(ram0.read(5, 0), 0u);
}

TEST(Saf, HoldsThroughRetentionDecay) {
  // A retention fault decaying towards 1 cannot move a stuck-at-0 bit.
  FaultyRam ram(8, 1);
  ram.inject(Fault::saf({2, 0}, 0));
  ram.inject(Fault::retention({2, 0}, /*decays_to=*/1, /*delay_ticks=*/2));
  ram.write(2, 0, 0);
  ram.advance_time(10);
  EXPECT_EQ(ram.read(2, 0), 0u);
}

TEST(Saf, InjectionClampReappliesStaticConditions) {
  // The injection-time clamp is a state perturbation: a previously
  // injected static condition (here a wired-OR bridge) must be
  // re-applied immediately, not first on the next write — and the
  // result must not depend on the injection order.
  FaultyRam ram(8, 1);
  ram.inject(Fault::bridge({2, 0}, {3, 0}, /*wired_and=*/false));
  ram.inject(Fault::saf({2, 0}, 1));
  EXPECT_EQ(ram.peek(2), 1u);
  EXPECT_EQ(ram.read(3, 0), 1u);  // bridge ties cell 3 to 1 OR 0
  FaultyRam swapped(8, 1);
  swapped.inject(Fault::saf({2, 0}, 1));
  swapped.inject(Fault::bridge({2, 0}, {3, 0}, /*wired_and=*/false));
  EXPECT_EQ(swapped.read(3, 0), 1u);
}

TEST(Saf, HoldsThroughMultiAccessWiredAndRead) {
  // The stuck value participates in the wired-AND of a multi-access
  // read even when the stuck cell was never written.
  FaultyRam ram(8, 1);
  ram.inject(Fault::saf({6, 0}, 1));
  ram.inject(Fault::af_multi_access(2, 6));
  ram.poke(2, 1);
  EXPECT_EQ(ram.read(2, 0), 1u);  // 1 AND 1 (cell 6 stuck at 1 unwritten)
}

TEST(Saf, OtherCellsUnaffected) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::saf({3, 0}, 0));
  ram.write(2, 1, 0);
  ram.write(4, 1, 0);
  EXPECT_EQ(ram.read(2, 0), 1u);
  EXPECT_EQ(ram.read(4, 0), 1u);
}

// --- transition faults --------------------------------------------------

TEST(Tf, UpTransitionFails) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::tf({1, 0}, /*up=*/true));
  ram.write(1, 0, 0);
  ram.write(1, 1, 0);  // 0 -> 1 fails
  EXPECT_EQ(ram.read(1, 0), 0u);
}

TEST(Tf, DownTransitionFails) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::tf({1, 0}, /*up=*/false));
  ram.poke(1, 1);
  ram.write(1, 0, 0);  // 1 -> 0 fails
  EXPECT_EQ(ram.read(1, 0), 1u);
}

TEST(Tf, UpFaultStillAllowsDown) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::tf({1, 0}, /*up=*/true));
  ram.poke(1, 1);
  ram.write(1, 0, 0);
  EXPECT_EQ(ram.read(1, 0), 0u);
}

TEST(Tf, NonTransitionWriteUnaffected) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::tf({1, 0}, /*up=*/true));
  ram.poke(1, 1);
  ram.write(1, 1, 0);
  EXPECT_EQ(ram.read(1, 0), 1u);
}

// --- write disturb ------------------------------------------------------

TEST(Wdf, NonTransitionWriteFlips) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::wdf({5, 0}));
  ram.poke(5, 0);
  ram.write(5, 0, 0);  // 0 -> 0 disturbs to 1
  EXPECT_EQ(ram.read(5, 0), 1u);
}

TEST(Wdf, TransitionWriteWorks) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::wdf({5, 0}));
  ram.poke(5, 0);
  ram.write(5, 1, 0);
  EXPECT_EQ(ram.read(5, 0), 1u);
}

// --- read-logic faults ----------------------------------------------------

TEST(Rdf, ReadFlipsAndReturnsFlipped) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::rdf({2, 0}));
  ram.poke(2, 1);
  EXPECT_EQ(ram.read(2, 0), 0u);  // returns the flipped value
  EXPECT_EQ(ram.peek(2), 0u);     // and the cell flipped
}

TEST(Drdf, ReadReturnsOldButFlipsCell) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::drdf({2, 0}));
  ram.poke(2, 1);
  EXPECT_EQ(ram.read(2, 0), 1u);  // deceptive: correct value returned
  EXPECT_EQ(ram.peek(2), 0u);     // cell flipped behind the reader
}

TEST(Irf, ReadInvertedCellIntact) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::irf({2, 0}));
  ram.poke(2, 1);
  EXPECT_EQ(ram.read(2, 0), 0u);
  EXPECT_EQ(ram.peek(2), 1u);
}

TEST(Sof, ReadReturnsSenseAmpHistory) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::sof({4, 0}));
  ram.poke(3, 1);
  ram.poke(4, 0);
  ram.read(3, 0);                 // history becomes 1
  EXPECT_EQ(ram.read(4, 0), 1u);  // open cell echoes history, not 0
  ram.poke(5, 0);
  ram.read(5, 0);                 // history becomes 0
  ram.poke(4, 1);
  EXPECT_EQ(ram.read(4, 0), 0u);
}

TEST(Sof, HistoryIsPerPort) {
  FaultyRam ram(8, 1, 2);
  ram.inject(Fault::sof({4, 0}));
  ram.poke(3, 1);
  ram.read(3, 0);  // port 0 history = 1
  ram.poke(2, 0);
  ram.read(2, 1);  // port 1 history = 0
  ram.poke(4, 0);
  EXPECT_EQ(ram.read(4, 0), 1u);
  ram.poke(4, 1);
  EXPECT_EQ(ram.read(4, 1), 0u);
}

// --- coupling faults -----------------------------------------------------

TEST(CfIn, AggressorTransitionInvertsVictim) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::cf_in({2, 0}, {5, 0}));
  ram.poke(2, 1);
  ram.poke(5, 0);
  ram.write(5, 1, 0);  // up transition on aggressor
  EXPECT_EQ(ram.peek(2), 0u);
  ram.write(5, 0, 0);  // down transition also inverts
  EXPECT_EQ(ram.peek(2), 1u);
}

TEST(CfIn, NonTransitionWriteDoesNotFire) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::cf_in({2, 0}, {5, 0}));
  ram.poke(2, 1);
  ram.poke(5, 1);
  ram.write(5, 1, 0);
  EXPECT_EQ(ram.peek(2), 1u);
}

TEST(CfId, UpTransitionForcesVictim) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::cf_id({1, 0}, {6, 0}, /*up=*/true, /*forced=*/1));
  ram.poke(1, 0);
  ram.poke(6, 0);
  ram.write(6, 1, 0);
  EXPECT_EQ(ram.peek(1), 1u);
}

TEST(CfId, WrongDirectionDoesNotFire) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::cf_id({1, 0}, {6, 0}, /*up=*/true, /*forced=*/1));
  ram.poke(1, 0);
  ram.poke(6, 1);
  ram.write(6, 0, 0);  // down transition; fault wants up
  EXPECT_EQ(ram.peek(1), 0u);
}

TEST(CfId, DownVariantForcesZero) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::cf_id({1, 0}, {6, 0}, /*up=*/false, /*forced=*/0));
  ram.poke(1, 1);
  ram.poke(6, 1);
  ram.write(6, 0, 0);
  EXPECT_EQ(ram.peek(1), 0u);
}

TEST(CfId, IdempotentWhenVictimAlreadyForcedValue) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::cf_id({1, 0}, {6, 0}, /*up=*/true, /*forced=*/1));
  ram.poke(1, 1);
  ram.poke(6, 0);
  ram.write(6, 1, 0);
  EXPECT_EQ(ram.peek(1), 1u);
}

TEST(CfSt, VictimForcedWhileAggressorInState) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::cf_st({3, 0}, {0, 0}, /*when=*/1, /*forced=*/0));
  ram.write(0, 1, 0);  // aggressor enters trigger state
  ram.write(3, 1, 0);  // write 1 to victim: forced back to 0
  EXPECT_EQ(ram.read(3, 0), 0u);
  ram.write(0, 0, 0);  // aggressor leaves trigger state
  ram.write(3, 1, 0);
  EXPECT_EQ(ram.read(3, 0), 1u);
}

TEST(CfSt, IntraWordStateCoupling) {
  FaultyRam ram(4, 4);
  ram.inject(Fault::cf_st({2, 3}, {2, 0}, /*when=*/1, /*forced=*/1));
  ram.write(2, 0b0001, 0);  // bit0 = 1 triggers: bit3 forced to 1
  EXPECT_EQ(ram.read(2, 0), 0b1001u);
  ram.write(2, 0b0000, 0);  // trigger released
  EXPECT_EQ(ram.read(2, 0), 0b0000u);
}

// --- bridges --------------------------------------------------------------

TEST(Bridge, WiredAndTiesBothCells) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::bridge({1, 0}, {2, 0}, /*wired_and=*/true));
  ram.write(1, 1, 0);
  ram.write(2, 0, 0);
  EXPECT_EQ(ram.peek(1), 0u);  // 1 AND 0
  EXPECT_EQ(ram.peek(2), 0u);
}

TEST(Bridge, WiredOrTiesBothCells) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::bridge({1, 0}, {2, 0}, /*wired_and=*/false));
  ram.write(1, 0, 0);
  ram.write(2, 1, 0);
  EXPECT_EQ(ram.peek(1), 1u);  // 0 OR 1
  EXPECT_EQ(ram.peek(2), 1u);
}

TEST(Bridge, AgreeingValuesUndisturbed) {
  // With both cells already equal the tie changes nothing.  (They must
  // be set atomically: under the standard wired-AND model a sequential
  // 1-write against a 0 neighbour is immediately pulled back down.)
  FaultyRam ram(8, 1);
  ram.inject(Fault::bridge({1, 0}, {2, 0}, /*wired_and=*/true));
  ram.poke(1, 1);
  ram.poke(2, 1);
  ram.write(1, 1, 0);
  EXPECT_EQ(ram.peek(1), 1u);
  EXPECT_EQ(ram.peek(2), 1u);
  ram.write(2, 0, 0);  // now both collapse to 0
  EXPECT_EQ(ram.peek(1), 0u);
  EXPECT_EQ(ram.peek(2), 0u);
}

// --- address decoder faults -------------------------------------------------

TEST(Af, NoAccessReadsZeroWritesLost) {
  FaultyRam ram(8, 4);
  ram.inject(Fault::af_no_access(3));
  ram.write(3, 0xF, 0);
  EXPECT_EQ(ram.peek(3), 0u);     // write lost
  ram.poke(3, 0xA);
  EXPECT_EQ(ram.read(3, 0), 0u);  // floating bus reads zero
}

TEST(Af, WrongAccessHitsOtherCell) {
  FaultyRam ram(8, 4);
  ram.inject(Fault::af_wrong_access(3, 5));
  ram.write(3, 0x9, 0);
  EXPECT_EQ(ram.peek(3), 0u);
  EXPECT_EQ(ram.peek(5), 0x9u);
  EXPECT_EQ(ram.read(3, 0), 0x9u);  // reads cell 5
}

TEST(Af, MultiAccessWritesBothReadsWiredAnd) {
  FaultyRam ram(8, 4);
  ram.inject(Fault::af_multi_access(2, 6));
  ram.write(2, 0xC, 0);
  EXPECT_EQ(ram.peek(2), 0xCu);
  EXPECT_EQ(ram.peek(6), 0xCu);
  ram.poke(6, 0xA);
  EXPECT_EQ(ram.read(2, 0), 0xC & 0xAu);
}

TEST(Af, UnaffectedAddressesNormal) {
  FaultyRam ram(8, 4);
  ram.inject(Fault::af_wrong_access(3, 5));
  ram.write(4, 0x7, 0);
  EXPECT_EQ(ram.read(4, 0), 0x7u);
}

// --- NPSF ---------------------------------------------------------------

TEST(Npsf, PatternForcesBaseCell) {
  // 4x4 grid; victim cell 5 (row 1, col 1) with neighbours
  // N=1, E=6, S=9, W=4.  Pattern 0b1111 (all ones) forces victim to 0.
  FaultyRam ram(16, 1);
  ram.inject(Fault::npsf_static({5, 0}, 0b1111, /*forced=*/0, 4));
  ram.write(5, 1, 0);
  EXPECT_EQ(ram.peek(5), 1u);  // neighbourhood not yet matching
  ram.write(1, 1, 0);
  ram.write(6, 1, 0);
  ram.write(9, 1, 0);
  ram.write(4, 1, 0);  // completes the pattern
  EXPECT_EQ(ram.peek(5), 0u);
}

TEST(Npsf, WrongPatternDoesNotFire) {
  FaultyRam ram(16, 1);
  ram.inject(Fault::npsf_static({5, 0}, 0b1111, /*forced=*/0, 4));
  ram.write(5, 1, 0);
  ram.write(1, 1, 0);
  ram.write(6, 1, 0);
  ram.write(9, 1, 0);  // W stays 0: pattern 0b1110
  EXPECT_EQ(ram.peek(5), 1u);
}

// --- cascades & multiple faults ---------------------------------------------

TEST(Cascade, CouplingChainPropagates) {
  // Aggressor 0 -> victim 1; victim 1 is aggressor for victim 2.
  FaultyRam ram(8, 1);
  ram.inject(Fault::cf_id({1, 0}, {0, 0}, /*up=*/true, /*forced=*/1));
  ram.inject(Fault::cf_id({2, 0}, {1, 0}, /*up=*/true, /*forced=*/1));
  ram.write(0, 1, 0);
  EXPECT_EQ(ram.peek(1), 1u);
  EXPECT_EQ(ram.peek(2), 1u);  // fired by victim 1's own transition
}

TEST(Cascade, MutualInversionTerminates) {
  // Two CFin faults coupling a pair both ways must not loop forever.
  FaultyRam ram(4, 1);
  ram.inject(Fault::cf_in({0, 0}, {1, 0}));
  ram.inject(Fault::cf_in({1, 0}, {0, 0}));
  ram.write(1, 1, 0);  // fires inversion of 0, which fires back...
  SUCCEED();           // reaching here means the cascade cap worked
}

TEST(MultiFault, SafVictimWinsOverCoupling) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::saf({1, 0}, 0));
  ram.inject(Fault::cf_id({1, 0}, {0, 0}, /*up=*/true, /*forced=*/1));
  ram.write(0, 1, 0);  // tries to force victim to 1
  EXPECT_EQ(ram.peek(1), 0u);
}

TEST(Injector, StatsCountLogicalAccesses) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::af_multi_access(0, 4));
  ram.write(0, 1, 0);  // one logical write (two physical)
  ram.read(0, 0);
  EXPECT_EQ(ram.stats(0).writes, 1u);
  EXPECT_EQ(ram.stats(0).reads, 1u);
}

TEST(Injector, ClearFaultsRestoresGoldenBehaviour) {
  FaultyRam ram(8, 1);
  ram.inject(Fault::saf({1, 0}, 0));
  ram.clear_faults();
  ram.write(1, 1, 0);
  EXPECT_EQ(ram.read(1, 0), 1u);
}

TEST(Injector, FaultFreeMatchesSimRamOnRandomTraffic) {
  FaultyRam faulty(32, 4);
  SimRam golden(32, 4);
  std::uint64_t x = 12345;
  for (int i = 0; i < 1000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Addr a = static_cast<Addr>((x >> 32) % 32);
    if (x & 1) {
      const Word v = static_cast<Word>((x >> 16) & 0xF);
      faulty.write(a, v, 0);
      golden.write(a, v, 0);
    } else {
      ASSERT_EQ(faulty.read(a, 0), golden.read(a, 0)) << "step " << i;
    }
  }
}

// --- precondition enforcement (release builds included) -----------------

TEST(Inject, ThrowsOnMalformedFaults) {
  FaultyRam ram(8, 2);
  EXPECT_THROW(ram.inject(Fault::saf({8, 0}, 1)), std::invalid_argument);
  EXPECT_THROW(ram.inject(Fault::saf({0, 2}, 1)), std::invalid_argument);
  EXPECT_THROW(ram.inject(Fault::cf_in({1, 0}, {9, 0})),
               std::invalid_argument);
  EXPECT_THROW(ram.inject(Fault::cf_in({1, 0}, {1, 0})),
               std::invalid_argument);
  EXPECT_THROW(ram.inject(Fault::af_wrong_access(1, 8)),
               std::invalid_argument);
  EXPECT_THROW(ram.inject(Fault::af_multi_access(1, 99)),
               std::invalid_argument);
  EXPECT_THROW(ram.inject(Fault::retention({1, 0}, 1, /*delay_ticks=*/0)),
               std::invalid_argument);
  // A kind past the last one is named by number (describe() prints "?").
  Fault unknown = Fault::saf({1, 0}, 1);
  unknown.kind = static_cast<FaultKind>(200);
  try {
    ram.inject(unknown);
    ADD_FAILURE() << "accepted an unknown fault kind";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown fault kind 200"),
              std::string::npos)
        << e.what();
  }
  // Nothing was recorded by the rejected injections.
  EXPECT_TRUE(ram.faults().empty());
  EXPECT_NO_THROW(ram.inject(Fault::saf({7, 1}, 1)));
}

// One rule at every boundary: mem::validate_fault rejects exactly what
// FaultyRam::inject and PackedFaultRam::add_fault reject, and all three
// say it in the same words, naming the fault (and the memory, where
// the fault does not fit it).
TEST(ValidateFault, BothMemoriesApplyTheOneRule) {
  Fault unknown = Fault::saf({1, 0}, 1);
  unknown.kind = static_cast<FaultKind>(200);
  const std::vector<std::pair<Fault, std::string>> cases = {
      {Fault::saf({8, 0}, 1),
       "victim out of range of the 8 x 2 memory: SAF1 v=(8,0)"},
      {Fault::saf({0, 2}, 1),
       "victim out of range of the 8 x 2 memory: SAF1 v=(0,2)"},
      {Fault::cf_in({1, 0}, {9, 0}),
       "aggressor out of range of the 8 x 2 memory: CFin v=(1,0) a=(9,0)"},
      {Fault::cf_in({1, 0}, {1, 2}),
       "aggressor out of range of the 8 x 2 memory: CFin v=(1,0) a=(1,2)"},
      {Fault::cf_in({1, 0}, {1, 0}),
       "aggressor must differ from victim: CFin v=(1,0) a=(1,0)"},
      {Fault::af_wrong_access(1, 8),
       "alias out of range of the 8 x 2 memory: AF-wrong v=(1,0) alias=8"},
      {Fault::retention({1, 0}, 1, /*delay_ticks=*/0),
       "retention fault needs delay > 0: DRF v=(1,0) decays_to=1 after=0"},
      {unknown, "unknown fault kind 200"}};
  const auto message_of = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const auto& [fault, message] : cases) {
    EXPECT_EQ(message_of([&] { validate_fault(fault, 8, 2); }), message);
    FaultyRam scalar(8, 2);
    EXPECT_EQ(message_of([&] { scalar.inject(fault); }), message);
    PackedFaultRam packed(8, 2);
    EXPECT_EQ(message_of([&] { (void)packed.add_fault(fault); }), message);
  }
  EXPECT_NO_THROW(validate_fault(Fault::saf({7, 1}, 1), 8, 2));
  EXPECT_NO_THROW(validate_fault(Fault::af_no_access(7), 8, 2));
}

TEST(Ctor, RejectsUnsupportedGeometry) {
  // The per-port stats/sense-amp arrays hold 4 entries; anything else
  // would index out of bounds in release builds.
  EXPECT_THROW(FaultyRam(8, 1, 0), std::invalid_argument);
  EXPECT_THROW(FaultyRam(8, 1, 3), std::invalid_argument);
  EXPECT_THROW(FaultyRam(8, 1, 5), std::invalid_argument);
  EXPECT_THROW(FaultyRam(8, 0, 1), std::invalid_argument);
  EXPECT_THROW(FaultyRam(8, 33, 1), std::invalid_argument);
  EXPECT_THROW(FaultyRam(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(SimRam(8, 1, 8), std::invalid_argument);
  EXPECT_NO_THROW(FaultyRam(8, 32, 4));
}

TEST(FaultDescribe, MentionsKindAndCells) {
  const Fault f = Fault::cf_in({3, 0}, {7, 1});
  const std::string d = f.describe();
  EXPECT_NE(d.find("CFin"), std::string::npos);
  EXPECT_NE(d.find("(3,0)"), std::string::npos);
  EXPECT_NE(d.find("(7,1)"), std::string::npos);
}

TEST(FaultClassMap, EveryKindHasAClass) {
  EXPECT_EQ(fault_class(FaultKind::kSaf0), FaultClass::kSaf);
  EXPECT_EQ(fault_class(FaultKind::kTfDown), FaultClass::kTf);
  EXPECT_EQ(fault_class(FaultKind::kSof), FaultClass::kReadLogic);
  EXPECT_EQ(fault_class(FaultKind::kCfIdUp1), FaultClass::kCfId);
  EXPECT_EQ(fault_class(FaultKind::kBridgeOr), FaultClass::kBridge);
  EXPECT_EQ(fault_class(FaultKind::kAfMultiAccess), FaultClass::kAf);
  EXPECT_EQ(fault_class(FaultKind::kNpsfStatic), FaultClass::kNpsf);
}

}  // namespace
}  // namespace prt::mem
