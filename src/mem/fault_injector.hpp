// Fault-injecting memory wrapper.
//
// FaultyRam presents the Memory interface while perturbing reads and
// writes according to a list of injected functional faults (fault.hpp).
// Test algorithms (March, PRT) run unchanged against it; a test detects
// the fault when its observable behaviour (read values / final
// signature) deviates from the golden run.
#pragma once

#include <array>
#include <vector>

#include "mem/fault.hpp"
#include "mem/memory.hpp"
#include "mem/sram.hpp"

namespace prt::mem {

/// Behaviour of an address under decoder faults: the set of physical
/// cells the address actually opens.
struct DecodedAccess {
  std::array<Addr, 2> cells{};
  unsigned count = 0;  // 0 (no access), 1, or 2
};

class FaultyRam final : public Memory {
 public:
  /// Throws std::invalid_argument unless cells >= 1, 1 <= width_bits
  /// <= 32 and port_count is 1, 2 or 4 (the stats/sense-amp arrays are
  /// sized for 4 ports; anything else would index out of bounds).
  FaultyRam(Addr cells, unsigned width_bits, unsigned port_count = 1);

  /// Injects a fault.  Throws std::invalid_argument where
  /// mem::validate_fault does (an unknown kind, a cell/bit/alias out of
  /// range, a coupling fault with victim == aggressor, a retention
  /// fault with delay == 0) — malformed universes must not silently
  /// corrupt release-build campaigns.  Stuck-at victims are clamped to
  /// their stuck value immediately.
  void inject(const Fault& fault);
  void clear_faults() {
    faults_.clear();
    refreshed_at_.clear();
    has_address_fault_ = false;
    has_retention_fault_ = false;
  }

  /// Returns the wrapper to its just-constructed state (cells filled
  /// with `fill_value`, no faults, counters/clock/sense-amp history
  /// zero) without releasing storage.  Campaign workers reuse one
  /// FaultyRam across a whole fault shard through this instead of
  /// constructing and prefilling a fresh one per fault.
  void reset(Word fill_value = 0) {
    ram_.reset(fill_value);
    clear_faults();
    stats_.fill({});
    last_read_.fill(0);
    clock_ = 0;
  }

  /// reset() followed by injecting exactly `fault` — one fault universe
  /// entry per campaign run.
  void reset(const Fault& fault, Word fill_value = 0) {
    reset(fill_value);
    inject(fault);
  }
  [[nodiscard]] const std::vector<Fault>& faults() const { return faults_; }

  [[nodiscard]] Addr size() const override { return ram_.size(); }
  [[nodiscard]] unsigned width() const override { return ram_.width(); }
  [[nodiscard]] unsigned ports() const override { return ram_.ports(); }

  Word read(Addr addr, unsigned port) override;
  void write(Addr addr, Word value, unsigned port) override;
  void advance_time(std::uint64_t ticks) override { clock_ += ticks; }

  [[nodiscard]] AccessStats stats(unsigned port) const override {
    return stats_[port];
  }
  void reset_stats() override { stats_.fill({}); }

  /// Direct state access for tests (bypasses every fault and counter).
  [[nodiscard]] Word peek(Addr addr) const { return ram_.peek(addr); }
  void poke(Addr addr, Word value) { ram_.poke(addr, value); }

 private:
  /// Resolves decoder faults for an address.
  [[nodiscard]] DecodedAccess decode(Addr addr) const;

  /// Writes `value` into the physical cell, honouring TF/WDF/SAF and
  /// firing coupling effects for every actual bit transition.
  void physical_write(Addr cell, Word value);

  /// Reads the physical cell, honouring read-logic faults (may modify
  /// the cell, e.g. RDF/DRDF) and SOF history for `port`.
  Word physical_read(Addr cell, unsigned port);

  /// Sets one stored bit and, if it changed, propagates coupling
  /// effects (CFin/CFid where it is the aggressor), bridge ties, CFst
  /// conditions and NPSF patterns.  `depth` caps cascades so mutually
  /// coupled multi-fault configurations terminate.
  void set_bit(Addr cell, unsigned bit, unsigned value, int depth);

  /// Fires the coupling faults whose aggressor is (cell, bit) after it
  /// made a transition in direction `up`, then re-evaluates the
  /// conditional faults touching `cell`.
  void fire_transition(Addr cell, unsigned bit, bool up, int depth);

  /// Forces stuck-at victims of `cell` to their stuck value.  Called at
  /// injection time so the stuck value holds before any write; the
  /// write path (physical_write) and bit cascades (set_bit) clamp
  /// inline, so no per-access call is needed.
  void enforce_saf(Addr cell);
  /// Applies CFst / bridge / NPSF conditions affected by `cell`.
  void enforce_conditions(Addr cell, int depth);

  [[nodiscard]] unsigned stored_bit(Addr cell, unsigned bit) const {
    return (ram_.peek(cell) >> bit) & 1U;
  }

  /// Applies decay to retention victims of `cell` that have gone
  /// unrefreshed longer than their delay.
  void apply_retention(Addr cell);

  SimRam ram_;
  std::vector<Fault> faults_;
  // Fast-path gates: campaigns inject exactly one fault per run, so
  // the per-access decoder and retention scans are skipped outright
  // unless a fault of that family is present.
  bool has_address_fault_ = false;
  bool has_retention_fault_ = false;
  std::array<AccessStats, 4> stats_{};
  std::array<Word, 4> last_read_{};  // SOF sense-amp history per port
  std::uint64_t clock_ = 0;          // one tick per logical operation
  std::vector<std::uint64_t> refreshed_at_;  // per fault (kDrf only)
};

}  // namespace prt::mem
