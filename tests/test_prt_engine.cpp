// Tests for the multi-iteration PRT engine and the reconstructed
// 3-iteration TDB (core/prt_engine).
#include "core/prt_engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "gf/gf2m.hpp"
#include "mem/fault_injector.hpp"
#include "mem/sram.hpp"

namespace prt::core {
namespace {

TEST(PrtScheme, StandardBomShape) {
  const PrtScheme s = standard_scheme_bom(64);
  ASSERT_EQ(s.iterations.size(), 3u);
  EXPECT_EQ(s.field_modulus, 0b11u);
  // All three iterations use the paper-sanctioned two-term generator
  // g = 1 + x^2: solid-1 up, solid-0 down, checkerboard.
  for (const auto& it : s.iterations) {
    EXPECT_EQ(it.g, (std::vector<gf::Elem>{1, 0, 1}));
    EXPECT_FALSE(it.config.verify_pass);  // pure O(3n) iterations
  }
  EXPECT_EQ(s.iterations[0].config.init, (std::vector<gf::Elem>{1, 1}));
  EXPECT_EQ(s.iterations[1].config.init, (std::vector<gf::Elem>{0, 0}));
  EXPECT_EQ(s.iterations[2].config.init, (std::vector<gf::Elem>{0, 1}));
  EXPECT_EQ(s.iterations[0].config.trajectory, TrajectoryKind::kAscending);
  EXPECT_EQ(s.iterations[1].config.trajectory, TrajectoryKind::kDescending);
  EXPECT_EQ(s.iterations[2].config.trajectory, TrajectoryKind::kAscending);
}

TEST(PrtScheme, ExtendedWomUsesPaperGeneratorForGf16) {
  const PrtScheme s = extended_scheme_wom(64, 4);
  EXPECT_EQ(s.field_modulus, 0b10011u);
  bool uses_paper_g = false;
  for (const auto& it : s.iterations) {
    uses_paper_g |= it.g == std::vector<gf::Elem>{1, 2, 2};
  }
  EXPECT_TRUE(uses_paper_g);
}

TEST(PrtScheme, StandardWomOtherWidths) {
  for (unsigned m : {2u, 8u}) {
    const PrtScheme s = standard_scheme_wom(64, m);
    const gf::GF2m field(s.field_modulus);
    EXPECT_EQ(field.m(), m);
    ASSERT_EQ(s.iterations.size(), 3u);
  }
}

// The factories guard their word width with an exception that names
// it, thrown before any polynomial search: m = 17 and 20 would return
// a scheme over a field every campaign rejects, and wider or zero
// widths would search for minutes or forever.
TEST(PrtScheme, FactoriesRejectWordWidthOutsideTheField) {
  auto message_of = [](auto&& build) {
    try {
      (void)build();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("no std::invalid_argument");
  };
  for (const unsigned m : {17u, 20u}) {
    const std::string named = "m = " + std::to_string(m);
    SCOPED_TRACE(named);
    EXPECT_NE(message_of([&] { return standard_scheme_wom(64, m); })
                  .find(named),
              std::string::npos);
    EXPECT_NE(message_of([&] { return extended_scheme_wom(64, m); })
                  .find(named),
              std::string::npos);
    EXPECT_NE(message_of([&] { return retention_scheme(64, m, 100); })
                  .find(named),
              std::string::npos);
  }
  // The WOM factories start at two planes; retention needs n > 2.
  EXPECT_THROW((void)standard_scheme_wom(64, 1), std::invalid_argument);
  EXPECT_THROW((void)extended_scheme_wom(64, 1), std::invalid_argument);
  EXPECT_NE(message_of([] { return retention_scheme(2, 1, 100); })
                .find("n = 2"),
            std::string::npos);
  // The edges of the field still build.
  EXPECT_NO_THROW((void)standard_scheme_wom(64, 16));
  EXPECT_NO_THROW((void)retention_scheme(3, 16, 100));
}

TEST(PrtScheme, ExtendedSchemeEnablesVerifyPasses) {
  const PrtScheme s = extended_scheme_bom(64);
  EXPECT_GT(s.iterations.size(), 10u);
  for (const auto& it : s.iterations) {
    EXPECT_TRUE(it.config.verify_pass);
  }
}

TEST(PrtScheme, EveryCellAlternatesAcrossFirstTwoIterations) {
  // The core TF-activation property: the solid-1/solid-0 pair writes
  // complementary values into *every* cell, for even and odd sizes.
  for (mem::Addr n : {16u, 17u, 64u, 65u}) {
    const PrtScheme s = standard_scheme_bom(n);
    const gf::GF2m field(s.field_modulus);
    const PiTester t1(field, s.iterations[0].g);
    const PiTester t2(field, s.iterations[1].g);
    const auto img1 = t1.expected_image(n, s.iterations[0].config);
    const auto img2 = t2.expected_image(n, s.iterations[1].config);
    for (mem::Addr c = 0; c < n; ++c) {
      EXPECT_NE(img1[c], img2[c]) << "n=" << n << " cell " << c;
    }
  }
}

TEST(RunPrt, PassesOnFaultFreeBom) {
  mem::SimRam ram(64, 1);
  const PrtVerdict v = run_prt(ram, standard_scheme_bom(64));
  EXPECT_TRUE(v.pass);
  EXPECT_FALSE(v.detected());
  EXPECT_EQ(v.iterations.size(), 3u);
}

TEST(RunPrt, PassesOnFaultFreeWom) {
  mem::SimRam ram(100, 4);
  const PrtVerdict v = run_prt(ram, standard_scheme_wom(100, 4));
  EXPECT_TRUE(v.pass);
}

TEST(RunPrt, OpsMatchFormula) {
  // Each pure iteration costs exactly 3n ops (§3: O(3n)).
  mem::SimRam ram(128, 1);
  const PrtVerdict v = run_prt(ram, standard_scheme_bom(128));
  EXPECT_EQ(v.ops(), prt_ops(128, 2, 3));
  EXPECT_EQ(v.ops(), 3u * (3 * 128));
}

TEST(RunPrt, DetectsEverySafBothPolarities) {
  // §3 claim, SAF slice: all stuck-at faults detected in 3 iterations.
  for (mem::Addr cell = 0; cell < 32; ++cell) {
    for (unsigned v : {0u, 1u}) {
      mem::FaultyRam ram(32, 1);
      ram.inject(mem::Fault::saf({cell, 0}, v));
      EXPECT_TRUE(run_prt(ram, standard_scheme_bom(32)).detected())
          << "cell " << cell << " stuck-at-" << v;
    }
  }
}

TEST(RunPrt, DetectsEveryTransitionFault) {
  // The anti-checkerboard pair guarantees both transition directions.
  for (mem::Addr cell = 0; cell < 33; ++cell) {
    for (bool up : {true, false}) {
      mem::FaultyRam ram(33, 1);
      ram.inject(mem::Fault::tf({cell, 0}, up));
      EXPECT_TRUE(run_prt(ram, standard_scheme_bom(33)).detected())
          << "cell " << cell << " up=" << up;
    }
  }
}

TEST(RunPrt, StandardMissesSomeWdfExtendedCatchesAll) {
  // WDF needs a non-transition write; the 3-iteration scheme only has
  // those on half the cells (checkerboard zeros) — a structural limit
  // of 3 pure pi-iterations documented in EXPERIMENTS.md.  The
  // extended scheme covers every cell.
  unsigned std_misses = 0;
  for (mem::Addr cell = 0; cell < 16; ++cell) {
    mem::FaultyRam r1(16, 1);
    r1.inject(mem::Fault::wdf({cell, 0}));
    if (!run_prt(r1, standard_scheme_bom(16)).detected()) ++std_misses;
    mem::FaultyRam r2(16, 1);
    r2.inject(mem::Fault::wdf({cell, 0}));
    EXPECT_TRUE(run_prt(r2, extended_scheme_bom(16)).detected())
        << "cell " << cell;
  }
  EXPECT_GT(std_misses, 0u);
}

TEST(RunPrt, StandardDetectsDeceptiveAndIncorrectReads) {
  // DRDF and IRF corrupt the *second* window read, whose value enters
  // the two-term feedback.  (RDF flips twice between the two reads and
  // cancels under g = 1 + x^2 — it needs the extended scheme's
  // maximal-length iterations; see below.)
  for (mem::Addr cell = 0; cell < 16; ++cell) {
    for (int kind = 0; kind < 2; ++kind) {
      mem::FaultyRam ram(16, 1);
      const mem::BitRef v{cell, 0};
      switch (kind) {
        case 0: ram.inject(mem::Fault::drdf(v)); break;
        case 1: ram.inject(mem::Fault::irf(v)); break;
      }
      EXPECT_TRUE(run_prt(ram, standard_scheme_bom(16)).detected())
          << "cell " << cell << " kind " << kind;
    }
  }
}

TEST(RunPrt, ExtendedDetectsEveryRdf) {
  for (mem::Addr cell = 0; cell < 16; ++cell) {
    mem::FaultyRam ram(16, 1);
    ram.inject(mem::Fault::rdf({cell, 0}));
    EXPECT_TRUE(run_prt(ram, extended_scheme_bom(16)).detected())
        << "cell " << cell;
  }
}

TEST(RunPrt, ExtendedDetectsEverySof) {
  // Stuck-open cells echo the sense amp; solid backgrounds cannot see
  // them, the checkerboard/maximal-length iterations can.
  for (mem::Addr cell = 0; cell < 16; ++cell) {
    mem::FaultyRam ram(16, 1);
    ram.inject(mem::Fault::sof({cell, 0}));
    EXPECT_TRUE(run_prt(ram, extended_scheme_bom(16)).detected())
        << "cell " << cell;
  }
}

TEST(RunPrt, DetectsNoAccessAndWrongAccessDecoderFaults) {
  for (mem::Addr a = 0; a < 16; ++a) {
    mem::FaultyRam r1(16, 1);
    r1.inject(mem::Fault::af_no_access(a));
    EXPECT_TRUE(run_prt(r1, standard_scheme_bom(16)).detected()) << a;
    mem::FaultyRam r2(16, 1);
    r2.inject(mem::Fault::af_wrong_access(a, (a + 1) % 16));
    EXPECT_TRUE(run_prt(r2, standard_scheme_bom(16)).detected()) << a;
  }
}

TEST(RunPrt, ExtendedDetectsMultiAccessDecoderFaults) {
  // Multi-access aliasing self-heals within a sweep; the verify passes
  // of the extended scheme observe the lasting inconsistency.
  for (mem::Addr a = 0; a < 16; ++a) {
    mem::FaultyRam ram(16, 1);
    ram.inject(mem::Fault::af_multi_access(a, (a + 8) % 16));
    EXPECT_TRUE(run_prt(ram, extended_scheme_bom(16)).detected()) << a;
  }
}

TEST(RunPrt, DetectsAdjacentCouplingBothOrientations) {
  // Physically adjacent coupling faults (|a - v| = 1): the ascending
  // iteration catches aggressor = victim + 1, the descending one
  // aggressor = victim - 1.
  for (mem::Addr v = 1; v + 1 < 24; ++v) {
    for (int da : {-1, +1}) {
      const mem::Addr a = static_cast<mem::Addr>(v + da);
      mem::FaultyRam ram(24, 1);
      ram.inject(mem::Fault::cf_in({v, 0}, {a, 0}));
      EXPECT_TRUE(run_prt(ram, standard_scheme_bom(24)).detected())
          << "v=" << v << " da=" << da;
    }
  }
}

TEST(RunPrt, ExtendedDetectsStateCouplingRegardlessOfDistance) {
  for (mem::Addr a : {0u, 9u, 23u}) {
    for (mem::Addr v : {4u, 15u, 22u}) {
      if (a == v) continue;
      for (unsigned when : {0u, 1u}) {
        for (unsigned forced : {0u, 1u}) {
          mem::FaultyRam ram(24, 1);
          ram.inject(mem::Fault::cf_st({v, 0}, {a, 0}, when, forced));
          EXPECT_TRUE(run_prt(ram, extended_scheme_bom(24)).detected())
              << "a=" << a << " v=" << v << " when=" << when
              << " forced=" << forced;
        }
      }
    }
  }
}

TEST(RunPrt, ExtendedDetectsEveryAdjacentCfIdVariant) {
  // The 4-variant idempotent coupling faults need the full
  // solid/checkerboard edge schedule of the extended scheme.
  for (mem::Addr v = 1; v + 1 < 18; ++v) {
    for (int da : {-1, +1}) {
      const mem::Addr a = static_cast<mem::Addr>(v + da);
      for (bool up : {true, false}) {
        for (unsigned forced : {0u, 1u}) {
          mem::FaultyRam ram(18, 1);
          ram.inject(mem::Fault::cf_id({v, 0}, {a, 0}, up, forced));
          EXPECT_TRUE(run_prt(ram, extended_scheme_bom(18)).detected())
              << "v=" << v << " da=" << da << " up=" << up
              << " forced=" << forced;
        }
      }
    }
  }
}

TEST(RunPrt, StandardDetectsOddDistanceBridges) {
  // The checkerboard iteration drives bridged cells of odd distance to
  // opposite values.
  for (mem::Addr a : {0u, 5u}) {
    for (mem::Addr b : {11u, 22u}) {
      if (((b - a) % 2) == 0) continue;
      for (bool wired_and : {true, false}) {
        mem::FaultyRam ram(24, 1);
        ram.inject(mem::Fault::bridge({a, 0}, {b, 0}, wired_and));
        EXPECT_TRUE(run_prt(ram, standard_scheme_bom(24)).detected())
            << "a=" << a << " b=" << b << " and=" << wired_and;
      }
    }
  }
}

TEST(RunPrt, ExtendedDetectsBridgesAnyDistance) {
  for (mem::Addr a : {0u, 5u}) {
    for (mem::Addr b : {11u, 22u}) {
      for (bool wired_and : {true, false}) {
        mem::FaultyRam ram(24, 1);
        ram.inject(mem::Fault::bridge({a, 0}, {b, 0}, wired_and));
        EXPECT_TRUE(run_prt(ram, extended_scheme_bom(24)).detected())
            << "a=" << a << " b=" << b << " and=" << wired_and;
      }
    }
  }
}

TEST(RunPrt, WomExtendedDetectsIntraWordStateCoupling) {
  // Victim bit 3 forced while bit 0 of the same word is 1: needs a
  // background word with bit0 = 1, bit3 = 0, which the maximal-length
  // iterations provide (solid/checkerboard words have all bits equal).
  mem::FaultyRam ram(32, 4);
  ram.inject(mem::Fault::cf_st({5, 3}, {5, 0}, /*when=*/1, /*forced=*/1));
  EXPECT_TRUE(run_prt(ram, extended_scheme_wom(32, 4)).detected());
}

TEST(RunPrt, FewerIterationsDetectLess) {
  // A TF-down at a cell whose checkerboard value is 0 in iteration 1
  // needs the complementary iteration; truncated schemes must miss
  // some fault the full scheme catches.
  PrtScheme full = standard_scheme_bom(32);
  PrtScheme one = full;
  one.iterations.resize(1);
  unsigned misses_one = 0;
  unsigned misses_full = 0;
  for (mem::Addr cell = 0; cell < 32; ++cell) {
    for (bool up : {true, false}) {
      mem::FaultyRam r1(32, 1);
      r1.inject(mem::Fault::tf({cell, 0}, up));
      if (!run_prt(r1, one).detected()) ++misses_one;
      mem::FaultyRam r2(32, 1);
      r2.inject(mem::Fault::tf({cell, 0}, up));
      if (!run_prt(r2, full).detected()) ++misses_full;
    }
  }
  EXPECT_GT(misses_one, 0u);
  EXPECT_EQ(misses_full, 0u);
}

TEST(RunPrt, MisrOptionDoesNotFalseAlarm) {
  PrtScheme s = standard_scheme_bom(64);
  s.misr_poly = 0b1000011;
  mem::SimRam ram(64, 1);
  const PrtVerdict v = run_prt(ram, s);
  EXPECT_TRUE(v.pass);
  EXPECT_TRUE(v.misr_pass);
}

TEST(RunPrt, RejectsSchemeThatDoesNotFitTheMemory) {
  // The overload that builds its own oracle used to run any scheme: a
  // k = 2 scheme on one cell crashed, on two cells it passed, and a
  // GF(2) scheme on 4-bit words passed although every campaign
  // rejects it.  Each message names the value.
  const PrtScheme bom = standard_scheme_bom(16);
  const auto expect_rejected = [&](mem::SimRam ram, const std::string& value) {
    try {
      (void)run_prt(ram, bom);
      ADD_FAILURE() << "no std::invalid_argument naming \"" << value << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(value), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(mem::SimRam(1, 1), "k = 2, n = 1");
  expect_rejected(mem::SimRam(2, 1), "k = 2, n = 2");
  expect_rejected(mem::SimRam(64, 4), "field degree 1");

  // A degree-0 MISR polynomial would mean a 0-bit signature register
  // that the packed replay indexes at -1.  The rule rejects it by
  // name, and so does PiTester::enable_misr.
  PrtScheme misr = extended_scheme_bom(64);
  misr.misr_poly = 1;
  try {
    validate_prt_scheme(misr, 64, 1);
    ADD_FAILURE() << "no std::invalid_argument naming the MISR polynomial";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("MISR polynomial 1 has degree 0"),
              std::string::npos)
        << e.what();
  }
  PiTester tester(gf::GF2m(0b11), {1, 1, 1});
  EXPECT_THROW(tester.enable_misr(1), std::invalid_argument);
}

// z^2 + 1 = (z + 1)^2: GF(2)[z]/(z^2 + 1) is a ring, not GF(4).  The
// rule used to check only the degree, so a campaign ran the ring in
// Release and aborted in GF2m's assert in Debug.  The rule, GF2m and
// the factories that build the caller's field throw, naming it.
TEST(PrtScheme, RejectsAFieldModulusThatIsNotIrreducible) {
  PrtScheme ring = standard_scheme_wom(16, 2);
  ring.field_modulus = 0b101;
  mem::SimRam ram(16, 2);
  for (const auto& run : std::vector<std::function<void()>>{
           [&] { validate_prt_scheme(ring, 16, 2); },
           [&] { (void)run_prt(ram, ring); },
           [] { (void)standard_scheme_wom(16, 2, 0b101); },
           [] { (void)extended_scheme_wom(16, 2, 0b101); },
           [] { (void)retention_scheme(16, 2, 100, 0b101); }}) {
    try {
      run();
      ADD_FAILURE() << "no std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("modulus 5 "), std::string::npos)
          << e.what();
    }
  }
  // z^2 + 1, no constant term (z^2 + z, z), degree 0 and degree 17.
  for (const gf::Poly2 p : {0b101u, 0b110u, 0b10u, 1u, 0x20003u}) {
    EXPECT_FALSE(gf::is_field_modulus(p)) << p;
    EXPECT_THROW((void)gf::GF2m(p), std::invalid_argument) << p;
  }
  EXPECT_TRUE(gf::is_field_modulus(0b111));
}

TEST(PrtOps, Formula) {
  EXPECT_EQ(prt_ops(100, 2, 1), 3u * 100);
  EXPECT_EQ(prt_ops(100, 2, 3), 9u * 100);
  // k = 3: 3 init + 4(n-3) sweep + 3 Fin + 3 Init re-reads.
  EXPECT_EQ(prt_ops(100, 3, 1), 3u + 4 * 97 + 6);
}

}  // namespace
}  // namespace prt::core
