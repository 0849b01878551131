// Word-packed SIMD fault lanes.
//
// PackedFaultRamT<W> simulates up to LaneTraits<W>::kLanes
// *independent* single-fault faulty memories in one pass: each site
// stores a lane word whose bit lane L is the site's value in lane L's
// memory, and each lane carries exactly one injected fault.  One sweep
// over the array therefore evaluates up to kLanes faults
// simultaneously — the SIMD unit is the ordinary 64-bit ALU for the
// LaneWord instantiation and the vector units for the WideWord<K>
// ones (mem/lane_word.hpp), and every fault effect below is a handful
// of bitwise lane ops.
//
// A "site" is one bit of one cell: a memory of `cells` words of
// `width` bits is stored as cells*width lane words, site = cell*width
// + bit plane.  width == 1 (the classical bit-oriented campaigns) is
// the hot path and keeps the original one-site-per-cell layout; the
// word-oriented (WOM, m > 1) campaigns drive read_word()/write_word(),
// which count one operation per word access exactly like the scalar
// FaultyRam.
//
// Every valid fault rides a lane — add_fault rejects only what
// FaultyRam::inject rejects, so a campaign has no second route:
//  * the single-cell kinds (stuck-at, transition, write-disturb, the
//    read-logic kinds) — one victim site per lane;
//  * the two-cell coupling kinds (CFin, CFid, CFst) and bridges — a
//    lane is a whole memory, so an aggressor/victim *pair* fits in one
//    lane (a CFst whose trigger state is beyond {0, 1} is inert in
//    FaultyRam and takes a lane that registers nothing);
//  * the decoder faults — one fault per lane means the remap touches
//    exactly one address, a per-lane scatter on that one cell;
//  * static NPSF — each lane carries a 4-cell (N,E,S,W) neighbourhood
//    pattern in the same aggressor/victim metadata shape the coupling
//    lanes use: per-direction masks registered on the neighbour sites
//    plus cached neighbour-value lane words, so one write to any
//    neighbour re-checks the trigger of all lanes with four AND/XOR
//    ops (see apply_npsf);
//  * retention (DRF) — decay is advanced *analytically* from a packed
//    operation clock (reads + writes + advance_time ticks, bit-exact
//    with FaultyRam's clock_): instead of per-access decay scans the
//    lane latches the decayed value into the victim's lane word at the
//    first read after the pause boundary crosses the fault's delay.
//
// With that, the scalar FaultyRam is a *differential reference only*:
// semantics are bit-exact per lane with a FaultyRam holding the same
// single fault (tests/test_packed_campaign.cpp runs the differential
// check), including the injection-time stuck-at clamp, the
// injection-time enforcement of state conditions (CFst, bridge, NPSF)
// and the per-port sense-amp history of SOF (the PRT engines drive
// port 0 only).  Because every lane holds exactly one fault, the
// scalar model's cascade machinery (a victim flip re-triggering other
// faults) degenerates to a single direct effect per lane.
//
// Results are bit-identical per lane across both instantiations: the
// campaign layer picks the width per shard (512 lanes when the shard
// holds at least 256 faults, else 64) without changing any verdict, op
// count or escape list (analysis/campaign_driver.hpp).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/fault.hpp"
#include "mem/lane_word.hpp"

namespace prt::mem {

template <typename W>
class PackedFaultRamT {
 public:
  using Word = W;
  static constexpr unsigned kLanes = LaneTraits<W>::kLanes;
  static constexpr unsigned kMaxWidth = 32;

  /// A packed array of `cells` `width`-bit cells, all lanes
  /// zero-filled, no faults.  Throws std::invalid_argument naming the
  /// value when cells < 1 or width is outside [1, 32], before any
  /// storage is allocated.
  explicit PackedFaultRamT(Addr cells, unsigned width = 1);

  [[nodiscard]] Addr size() const { return size_; }
  [[nodiscard]] unsigned width() const { return width_; }
  [[nodiscard]] unsigned lanes_used() const { return lanes_used_; }
  /// Mask with one bit set per occupied lane (low lanes_used() bits).
  [[nodiscard]] W active_mask() const { return lane_mask_low<W>(lanes_used_); }

  /// Returns to the just-constructed state (all lanes zero, no faults,
  /// counters zero) without releasing storage.  Only the sites dirtied
  /// by faults pay a per-site cost; the data array is one memset.
  void reset();

  /// Assigns `fault` to the next free lane and returns its index.
  /// State conditions (CFst, bridge, NPSF) are enforced against the
  /// lane's current contents immediately and a retention victim's
  /// charge is stamped with the current clock, matching
  /// FaultyRam::inject.  An NPSF fault whose neighbourhood is
  /// incomplete (no grid, border victim, pattern > 15) still consumes
  /// a lane but registers no effect — it is inert in FaultyRam too, so
  /// the lane simply never mismatches; so does a CFst whose trigger
  /// state is beyond {0, 1}.  Throws std::invalid_argument naming the
  /// fault exactly where FaultyRam::inject does (mem::validate_fault:
  /// an unknown kind, a victim or aggressor cell or bit plane out of
  /// range, a two-cell fault with aggressor == victim, a decoder alias
  /// out of range, or a retention fault with delay == 0);
  /// std::length_error when all kLanes lanes are taken.  The sense-amp
  /// history an SOF lane echoes is kept only while the batch holds one,
  /// so an SOF fault added after the ram has served a read (since
  /// construction or reset()) throws std::logic_error naming the fault:
  /// the history that lane needs was not kept.  Fill a fresh or reset
  /// ram before driving it.
  unsigned add_fault(const Fault& fault);

  /// What one lane carries across a PRT iteration boundary, and
  /// nothing else (DESIGN.md §29).  Every PRT iteration writes each
  /// cell before it reads it (its trajectory is a permutation of the
  /// cells), so the rest of a lane's memory, its retention stamp, the
  /// clock and the decoder's addressed and alias cells are dead there.
  struct LaneState {
    /// The lane's bit of its fault's victim site: a transition, write
    /// disturb or bridge sees it on the next write.
    bool victim = false;
    /// The lane's bit of its aggressor site (coupling and bridge lanes).
    bool aggressor = false;
    /// Bit p: the lane's sense-amp history of plane p (SOF lanes).
    std::uint32_t sense = 0;
    /// Bit d: the lane's cached NPSF neighbour value in direction d,
    /// N = 0, E = 1, S = 2, W = 3 (NPSF lanes).
    std::uint8_t neighbours = 0;
  };

  /// The live state of lane `lane`, which holds `fault`, between two
  /// PRT iterations.  Precondition: lane < lanes_used() and `fault` is
  /// the fault add_fault gave that lane.
  [[nodiscard]] LaneState save_lane(unsigned lane, const Fault& fault) const;

  /// add_fault(fault), then restores `state` into the new lane, so the
  /// lane resumes a PRT transcript at the iteration boundary where
  /// save_lane took it.  Throws exactly where add_fault throws.
  unsigned add_fault(const Fault& fault, const LaneState& state);

  /// Reads every lane's bit of cell `addr` at once, applying each
  /// lane's retention decay and read-logic fault (read_site, the step
  /// read_word() runs per plane).  Preconditions: addr < size(),
  /// width() == 1 (word-oriented memories use read_word()).  Defined
  /// inline below and forced inline: the campaign replay loops issue
  /// millions of these per batch, so the fault-free-cell fast path
  /// must inline into them.  The ctest packed_accessors_inline holds
  /// the replays to it: it fails when prt_packed.cpp.o or
  /// march_runner.cpp.o references read() as an out-of-line symbol.
  [[gnu::always_inline]] W read(Addr addr);

  /// Writes bit lane L of `value` to cell `addr` in lane L's memory,
  /// applying each lane's write fault (write_site, the step
  /// write_word() runs per plane) and then firing each lane's coupling
  /// and NPSF effects (this cell as aggressor, victim, bridge endpoint
  /// or neighbourhood member).  Preconditions: addr < size(), width()
  /// == 1.  Defined inline below and forced inline, held to it by the
  /// same packed_accessors_inline ctest as read(); batches with only
  /// single-cell faults skip the two-cell/NPSF fire steps entirely
  /// (has_two_cell_, has_npsf_).
  [[gnu::always_inline]] void write(Addr addr, const W& value);

  /// Reads all width() planes of `cell` into out[0..width()), counting
  /// one operation (one clock tick) for the whole word — the packed
  /// equivalent of one FaultyRam::read of a word-oriented memory.  Each
  /// faulty plane runs the same read_site step as read(); the
  /// sense-amp history updates once, with the whole returned word,
  /// while the batch holds an SOF lane.
  void read_word(Addr cell, W* out);

  /// Writes planes[0..width()) to `cell`, counting one operation.
  /// Mirrors FaultyRam::physical_write's two phases: every plane lands
  /// first through the same write_site step as write(), then coupling
  /// fires per plane in ascending order and static conditions (CFst,
  /// bridge, NPSF) are re-enforced — so intra-word aggressor
  /// transitions see their victims' new values.
  void write_word(Addr cell, const W* planes);

  /// Idle time (March delay elements, PRT pause checkpoints): advances
  /// the packed operation clock so retention lanes decay analytically
  /// at the next access, exactly like FaultyRam::advance_time.
  void advance_time(std::uint64_t ticks) { idle_ticks_ += ticks; }

  /// Operation clock shared by all lanes: one tick per packed
  /// read/write (word or bit) plus the advance_time() idle ticks —
  /// bit-exact with FaultyRam's clock_, which also ticks once per
  /// access regardless of width.
  [[nodiscard]] std::uint64_t clock() const {
    return reads_ + writes_ + idle_ticks_;
  }

  /// Packed operations issued since the last reset().  Each packed
  /// read/write counts once; a scalar campaign issues the same count
  /// *per fault*, so the per-fault op cost is reads() + writes().
  [[nodiscard]] std::uint64_t reads() const { return reads_; }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }
  [[nodiscard]] std::uint64_t ops() const { return reads_ + writes_; }

  /// Direct state access for tests (bypasses faults and counters).
  /// `site` = cell * width() + bit plane.
  [[nodiscard]] W peek(Addr site) const { return data_[site]; }

 private:
  /// Per-kind lane masks for one faulty site; a lane's bit is set in
  /// the masks of at most the few sites its single fault references
  /// (two for coupling, five for NPSF).
  struct CellFaults {
    // Single-cell kinds (this site is the victim).
    W saf0{}, saf1{};
    W tf_up{}, tf_down{}, wdf{};
    W rdf{}, drdf{}, irf{}, sof{};
    // Two-cell kinds.  cfin/cfid_*/cfst_agg are registered on the
    // *aggressor* site, cfst_vic on the *victim* site (its writes must
    // re-enforce the condition), bridge on *both* endpoints.
    W cfin{};
    W cfid_up{}, cfid_down{};
    W cfst_agg{}, cfst_vic{};
    W bridge{};
    // Decoder kinds, registered on every site of the *faulty address*
    // (accesses to any other address behave normally — one fault per
    // lane).  The wrong/multi alias cell lives in lane_victim_.
    W af_no{};      // address opens no cell: reads 0, writes lost
    W af_wrong{};   // address opens the alias cell instead
    W af_multi{};   // address opens its own cell and the alias
    // Retention, registered on the victim site: a read latches the
    // decayed value when the clock has run past the lane's delay, a
    // write refreshes the charge.
    W drf{};
    // NPSF neighbourhood membership: npsf_n marks lanes for which this
    // site is the *north* neighbour (and so on for e/s/w), npsf_vic
    // lanes for which it is the base (victim) site.  Together they are
    // the packed analogue of FaultyRam's `touched` test — a write to
    // any site in the 5-cell neighbourhood re-checks the trigger.
    W npsf_n{}, npsf_e{}, npsf_s{}, npsf_w{};
    W npsf_vic{};

    [[nodiscard]] W coupling_any() const {
      return cfin | cfid_up | cfid_down | cfst_agg | cfst_vic | bridge;
    }
    [[nodiscard]] W npsf_any() const {
      return npsf_n | npsf_e | npsf_s | npsf_w | npsf_vic;
    }
  };

  [[nodiscard]] std::size_t site_of(Addr cell, unsigned plane) const {
    return static_cast<std::size_t>(cell) * width_ + plane;
  }

  CellFaults& slot_for(std::size_t site);

  /// The read patches of faulty site `site` (bit plane `plane` of its
  /// cell), in FaultyRam::physical_read's order; returns the value the
  /// sense amp delivers.  The one copy read() and read_word() share,
  /// forced inline: GCC otherwise leaves the 512-lane instantiation
  /// out of line inside read_word().
  [[gnu::always_inline]] W read_site(std::size_t site, unsigned plane,
                                     const CellFaults& f);

  /// The write patches of faulty site `site` (bit plane `plane` of its
  /// cell) holding `old`: WDF, TF, SAF, the decoder lanes and the
  /// retention refresh.  Stores and returns the landed value.  Coupling
  /// and NPSF stay with the callers, because a word write fires them
  /// only once every plane has landed.  The one copy write() and
  /// write_word() share, forced inline like read_site().
  [[gnu::always_inline]] W write_site(std::size_t site, unsigned plane,
                                      const W& old, const W& value,
                                      const CellFaults& f);

  /// Fires the two-cell effects of a write to site `site` that landed
  /// `now` over `old` (per-lane scatter over the few coupled lanes).
  void apply_coupling(std::size_t site, const W& old, const W& now,
                      const CellFaults& f);

  /// Re-checks the NPSF trigger after a write touched site `site`:
  /// refreshes the cached neighbour-value lane words from the site's
  /// new contents, matches all lanes' patterns bit-parallel (four
  /// XOR/OR ops across the direction caches) and forces the victims of
  /// the matching lanes registered on this site.
  void apply_npsf(std::size_t site, const CellFaults& f);

  /// Latches the decayed value into the victim site's lane word for
  /// every retention lane in `m` whose charge has expired on the
  /// packed clock (read path; the charge stamp itself is untouched,
  /// matching FaultyRam::apply_retention's idempotent re-force).
  void apply_retention(std::size_t site, const W& m);

  /// A write to a retention victim's cell refreshes its charge.
  void refresh_retention(const W& m);

  /// Patches a read of plane `plane` for the decoder lanes registered
  /// on it: wrong-access lanes read their alias cell, multi-access
  /// lanes read the wired-AND of both opened cells.
  [[nodiscard]] W apply_af_read(W value, const CellFaults& f, unsigned plane);

  /// Lands a write of `value` in plane `plane` of the alias cells of
  /// the wrong/multi decoder lanes registered on the addressed site
  /// (the write to the addressed site itself was already suppressed
  /// for wrong-access lanes by the caller).
  void apply_af_write(const W& value, const CellFaults& f, unsigned plane);

  Addr size_;
  unsigned width_;
  std::vector<W> data_;
  /// Site -> index into slots_, -1 for fault-free sites — the hot path
  /// pays one branch per access and only faulty sites (a handful per
  /// lane) touch a CellFaults record.
  std::vector<std::int16_t> slot_of_site_;
  std::vector<CellFaults> slots_;
  std::vector<std::size_t> dirty_sites_;
  /// Per-lane second-site metadata, only read for lanes registered in
  /// a coupling/bridge/decoder/NPSF mask.  Coupling, bridge and NPSF
  /// lanes store the victim *site*; the AF kinds store the alias
  /// *cell* (the plane comes from the access).
  std::array<std::size_t, kLanes> lane_victim_{};
  std::array<std::size_t, kLanes> lane_aggressor_{};
  /// Lanes whose CFid/CFst forces the victim to 1 (clear = forces 0).
  W forced1_{};
  /// CFst lanes triggered while the aggressor holds 1 (clear = 0).
  W cfst_state1_{};
  /// Bridge lanes with wired-OR semantics (clear = wired-AND).
  W bridge_or_{};
  /// Non-inert NPSF lanes and their trigger machinery: npat_[d] bit L
  /// is the pattern value lane L requires of its direction-d
  /// neighbour, nval_[d] bit L is that neighbour's *current* value
  /// (kept coherent by apply_npsf — only packed writes can change an
  /// NPSF lane's neighbour bits, because the lane holds no other
  /// fault).  Directions are indexed N=0, E=1, S=2, W=3.
  W npsf_lanes_{};
  std::array<W, 4> npat_{};
  std::array<W, 4> nval_{};
  /// NPSF lanes forcing their victim to 1 (clear = forces 0).
  W npsf_forced1_{};
  /// Retention lanes decaying to 1 (clear = decays to 0), plus the
  /// per-lane charge stamp and decay delay in clock ticks.
  W drf_decay1_{};
  std::array<std::uint64_t, kLanes> drf_refreshed_{};
  std::array<std::uint64_t, kLanes> drf_delay_{};
  unsigned lanes_used_ = 0;
  /// True once any lane holds a two-cell (coupling/bridge) fault —
  /// single-cell-only batches skip the coupling fire step on every
  /// write without even loading the per-site coupling masks.
  bool has_two_cell_ = false;
  /// True once any lane holds a decoder fault — batches without one
  /// skip the remap patches on every access.
  bool has_af_ = false;
  /// Same gates for the NPSF re-check and the retention clock math.
  bool has_npsf_ = false;
  bool has_drf_ = false;
  /// True once any lane holds an SOF fault: only then do the reads
  /// store the sense-amp history below (add_fault refuses an SOF lane
  /// once a read has gone unrecorded).
  bool has_sof_ = false;
  /// Packed sense-amp history (port 0), one word per bit plane — the
  /// lane analogue of FaultyRam's per-port last_read_ word.
  std::array<W, kMaxWidth> last_read_{};
  /// write_word's per-plane old and landed values, width() words each,
  /// stored only for the faulty planes its coupling step reads.
  std::vector<W> word_old_;
  std::vector<W> word_landed_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t idle_ticks_ = 0;
};

/// The 64-lane instantiation — the name the test suite and the
/// one-shot replay helpers use.
using PackedFaultRam = PackedFaultRamT<LaneWord>;

template <typename W>
inline W PackedFaultRamT<W>::read_site(std::size_t site, unsigned plane,
                                       const CellFaults& f) {
  // DRF: expired charges latch their decayed value before the sense
  // amp looks (FaultyRam::physical_read applies retention first).
  if (has_drf_ && lane_any(f.drf)) apply_retention(site, f.drf);
  W value = data_[site];
  // RDF: the cell flips and the sense amp sees the flipped value.
  value ^= f.rdf;
  // DRDF: the correct value is returned, the cell flips behind the
  // reader's back.
  data_[site] = value ^ f.drdf;
  // IRF: inverted data on the bus, cell untouched.
  value ^= f.irf;
  // SOF: the open cell echoes the sense amp's previous read.
  value = (value & ~f.sof) | (last_read_[plane] & f.sof);
  // Decoder lanes: a no-access read floats the bus (reads zeros), a
  // wrong/multi access reads the alias cell (wired-AND for multi).
  // Pure bus-level patches — the addressed cell keeps its state.
  if (has_af_) {
    value &= ~f.af_no;
    if (lane_any(f.af_wrong | f.af_multi)) {
      value = apply_af_read(value, f, plane);
    }
  }
  // Coupling/NPSF lanes are untouched by reads: their lane has no
  // read-logic fault, and a read never changes the bits a condition
  // watches (FaultyRam likewise only enforces conditions on writes).
  return value;
}

template <typename W>
inline W PackedFaultRamT<W>::write_site(std::size_t site, unsigned plane,
                                        const W& old, const W& value,
                                        const CellFaults& f) {
  // A lane holds exactly one fault, so the per-kind masks are
  // lane-disjoint and the sequential updates below never interact
  // across kinds.
  W nb = value;
  nb ^= f.wdf & ~(old ^ nb);   // WDF: non-transition write disturbs
  nb &= ~(f.tf_up & ~old);     // TF up: 0 -> 1 writes fail
  nb |= f.tf_down & old;       // TF down: 1 -> 0 writes fail
  nb = (nb & ~f.saf0) | f.saf1;
  if (has_af_) {
    // Decoder lanes: a no-access or wrong-access write never reaches
    // the addressed cell; wrong/multi lanes land the raw value in
    // their alias cell instead (no other fault lives in those lanes).
    const W suppressed = f.af_no | f.af_wrong;
    nb = (nb & ~suppressed) | (old & suppressed);
    data_[site] = nb;
    if (lane_any(f.af_wrong | f.af_multi)) apply_af_write(value, f, plane);
  } else {
    data_[site] = nb;
  }
  // A write refreshes the charge of every retention victim in the cell
  // (FaultyRam stamps refreshed_at_ right after the word lands).
  if (has_drf_ && lane_any(f.drf)) refresh_retention(f.drf);
  return nb;
}

template <typename W>
inline W PackedFaultRamT<W>::read(Addr addr) {
  assert(addr < size_);
  assert(width_ == 1);
  ++reads_;
  const std::int16_t slot = slot_of_site_[addr];
  const W value =
      slot >= 0 ? read_site(addr, 0, slots_[static_cast<std::size_t>(slot)])
                : data_[addr];
  if (has_sof_) last_read_[0] = value;
  return value;
}

template <typename W>
inline void PackedFaultRamT<W>::write(Addr addr, const W& value) {
  assert(addr < size_);
  assert(width_ == 1);
  ++writes_;
  const std::int16_t slot = slot_of_site_[addr];
  if (slot < 0) {
    data_[addr] = value;
    return;
  }
  const CellFaults& f = slots_[static_cast<std::size_t>(slot)];
  const W old = data_[addr];
  const W now = write_site(addr, 0, old, value, f);
  if (has_two_cell_ && lane_any(f.coupling_any())) {
    apply_coupling(addr, old, now, f);
  }
  // NPSF is re-checked on every write to a neighbourhood site, even a
  // non-transition one (FaultyRam enforces conditions after every
  // physical_write).
  if (has_npsf_ && lane_any(f.npsf_any())) apply_npsf(addr, f);
}

// The other members live in packed_fault_ram.cpp with explicit
// instantiations for the supported lane words.  These declarations come
// after the inline definitions above on purpose: declared before them,
// GCC 12 treats read() and write() as external, emits no copy of them
// here and leaves every replay's per-access call out of line.
extern template class PackedFaultRamT<LaneWord>;
extern template class PackedFaultRamT<WideWord<8>>;

}  // namespace prt::mem
