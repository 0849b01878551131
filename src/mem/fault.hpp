// Functional fault models for RAM, after van de Goor ("Testing
// Semiconductor Memories", the paper's reference [1]).  Physical shorts
// and opens in the cell array, address decoder and read/write logic are
// abstracted to the standard single-cell, two-cell (coupling), decoder
// and read/write-logic fault classes the paper's coverage claims are
// stated over.
#pragma once

#include <cstdint>
#include <string>

#include "mem/memory.hpp"

namespace prt::mem {

enum class FaultKind : std::uint8_t {
  // --- single-cell array faults -----------------------------------
  kSaf0,       // stuck-at-0: the bit always reads/holds 0
  kSaf1,       // stuck-at-1
  kTfUp,       // transition fault: 0 -> 1 writes fail
  kTfDown,     // transition fault: 1 -> 0 writes fail
  kWdf,        // write disturb: a non-transition write flips the bit
  // --- read/write logic faults -------------------------------------
  kRdf,        // read destructive: read flips the bit, returns new value
  kDrdf,       // deceptive read destructive: returns old, flips the bit
  kIrf,        // incorrect read: returns inverted value, bit unchanged
  kSof,        // stuck-open cell: read returns the port's previous read
  // --- two-cell coupling faults ------------------------------------
  kCfIn,       // inversion coupling: aggressor transition inverts victim
  kCfIdUp0,    // idempotent: aggressor up-transition forces victim to 0
  kCfIdUp1,    //             aggressor up-transition forces victim to 1
  kCfIdDown0,  //             aggressor down-transition forces victim to 0
  kCfIdDown1,  //             aggressor down-transition forces victim to 1
  kCfSt0,      // state coupling: victim forced to 0 while aggressor == s
  kCfSt1,      // state coupling: victim forced to 1 while aggressor == s
  kBridgeAnd,  // wired-AND bridge between two bits
  kBridgeOr,   // wired-OR bridge between two bits
  // --- address decoder faults --------------------------------------
  kAfNoAccess,     // the address opens no cell (reads 0, writes lost)
  kAfWrongAccess,  // the address opens another cell instead
  kAfMultiAccess,  // the address opens its own cell and another one
  // --- neighbourhood pattern sensitive -----------------------------
  kNpsfStatic,  // victim forced to v while the 4 neighbours match a
                // pattern (type-1 five-cell neighbourhood)
  // --- time-dependent ------------------------------------------------
  kDrf,  // data retention: the bit decays to a value when not
         // refreshed (written) for `delay` operation-ticks
};

/// True for fault kinds involving a second (aggressor) cell.
[[nodiscard]] constexpr bool is_coupling(FaultKind k) {
  switch (k) {
    case FaultKind::kCfIn:
    case FaultKind::kCfIdUp0:
    case FaultKind::kCfIdUp1:
    case FaultKind::kCfIdDown0:
    case FaultKind::kCfIdDown1:
    case FaultKind::kCfSt0:
    case FaultKind::kCfSt1:
    case FaultKind::kBridgeAnd:
    case FaultKind::kBridgeOr:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] constexpr bool is_address_fault(FaultKind k) {
  return k == FaultKind::kAfNoAccess || k == FaultKind::kAfWrongAccess ||
         k == FaultKind::kAfMultiAccess;
}

/// Coarse class used by the coverage tables.
enum class FaultClass : std::uint8_t {
  kSaf,
  kTf,
  kWdf,
  kReadLogic,  // RDF / DRDF / IRF / SOF
  kCfIn,
  kCfId,
  kCfSt,
  kBridge,
  kAf,
  kNpsf,
  kRetention,  // DRF
};

[[nodiscard]] FaultClass fault_class(FaultKind k);
[[nodiscard]] std::string to_string(FaultKind k);
[[nodiscard]] std::string to_string(FaultClass c);

/// One bit of one memory cell.
struct BitRef {
  Addr cell = 0;
  unsigned bit = 0;

  bool operator==(const BitRef&) const = default;
};

/// A single injected defect.  Fields beyond `kind` and `victim` are
/// meaningful only for the kinds that use them:
///  * coupling kinds use `aggressor` (a different bit);
///  * kCfSt* uses `state` as the aggressor condition value;
///  * kAfWrongAccess / kAfMultiAccess use `alias` as the other cell;
///  * kNpsfStatic uses `pattern` (4 bits: N,E,S,W in a row-major grid
///    of `grid_cols` columns) and `state` as the forced value;
///  * kDrf uses `delay` (operation ticks until decay) and `state` as
///    the decayed value.
struct Fault {
  FaultKind kind = FaultKind::kSaf0;
  BitRef victim;
  BitRef aggressor;
  Word state = 0;
  Addr alias = 0;
  unsigned pattern = 0;
  Addr grid_cols = 0;
  std::uint64_t delay = 0;

  // --- factories ----------------------------------------------------
  static Fault saf(BitRef v, unsigned value) {
    return {value ? FaultKind::kSaf1 : FaultKind::kSaf0, v, {}, 0, 0, 0, 0};
  }
  static Fault tf(BitRef v, bool up) {
    return {up ? FaultKind::kTfUp : FaultKind::kTfDown, v, {}, 0, 0, 0, 0};
  }
  static Fault wdf(BitRef v) {
    return {FaultKind::kWdf, v, {}, 0, 0, 0, 0};
  }
  static Fault rdf(BitRef v) { return {FaultKind::kRdf, v, {}, 0, 0, 0, 0}; }
  static Fault drdf(BitRef v) {
    return {FaultKind::kDrdf, v, {}, 0, 0, 0, 0};
  }
  static Fault irf(BitRef v) { return {FaultKind::kIrf, v, {}, 0, 0, 0, 0}; }
  static Fault sof(BitRef v) { return {FaultKind::kSof, v, {}, 0, 0, 0, 0}; }
  static Fault cf_in(BitRef victim, BitRef aggressor) {
    return {FaultKind::kCfIn, victim, aggressor, 0, 0, 0, 0};
  }
  static Fault cf_id(BitRef victim, BitRef aggressor, bool up,
                     unsigned forced) {
    const FaultKind k = up ? (forced ? FaultKind::kCfIdUp1
                                     : FaultKind::kCfIdUp0)
                           : (forced ? FaultKind::kCfIdDown1
                                     : FaultKind::kCfIdDown0);
    return {k, victim, aggressor, 0, 0, 0, 0};
  }
  static Fault cf_st(BitRef victim, BitRef aggressor, unsigned when,
                     unsigned forced) {
    return {forced ? FaultKind::kCfSt1 : FaultKind::kCfSt0, victim,
            aggressor, when, 0, 0, 0};
  }
  static Fault bridge(BitRef a, BitRef b, bool wired_and) {
    return {wired_and ? FaultKind::kBridgeAnd : FaultKind::kBridgeOr, a, b,
            0, 0, 0, 0};
  }
  static Fault af_no_access(Addr addr) {
    return {FaultKind::kAfNoAccess, {addr, 0}, {}, 0, 0, 0, 0};
  }
  static Fault af_wrong_access(Addr addr, Addr instead) {
    return {FaultKind::kAfWrongAccess, {addr, 0}, {}, 0, instead, 0, 0};
  }
  static Fault af_multi_access(Addr addr, Addr also) {
    return {FaultKind::kAfMultiAccess, {addr, 0}, {}, 0, also, 0, 0};
  }
  static Fault npsf_static(BitRef victim, unsigned neighbour_pattern,
                           unsigned forced, Addr grid_cols) {
    return {FaultKind::kNpsfStatic, victim, {}, forced, 0,
            neighbour_pattern, grid_cols, 0};
  }
  static Fault retention(BitRef v, unsigned decays_to,
                         std::uint64_t delay_ticks) {
    return {FaultKind::kDrf, v, {}, decays_to, 0, 0, 0, delay_ticks};
  }

  /// Human-readable one-liner, e.g. "CFin v=(3,0) a=(7,0)".
  [[nodiscard]] std::string describe() const;
};

/// The rule a fault must pass to be held by an n-cell memory of m-bit
/// words — FaultyRam::inject, PackedFaultRamT::add_fault and
/// CampaignService::submit all apply it.  Throws std::invalid_argument
/// naming the fault unless its kind is known, its victim (and a
/// two-cell fault's aggressor, which must differ from the victim) is a
/// bit of the memory, a wrong- or multi-access decoder alias is one of
/// its cells, and a retention fault has delay > 0.
void validate_fault(const Fault& fault, Addr n, unsigned m);

}  // namespace prt::mem
