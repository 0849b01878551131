#include "mem/packed_fault_ram.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace prt::mem {

template <typename W>
PackedFaultRamT<W>::PackedFaultRamT(Addr cells, unsigned width)
    : size_(cells), width_(width) {
  if (cells < 1) {
    throw std::invalid_argument("PackedFaultRam: cells must be >= 1 (got " +
                                std::to_string(cells) + ")");
  }
  if (width < 1 || width > kMaxWidth) {
    throw std::invalid_argument(
        "PackedFaultRam: width must be in [1, 32] (got " +
        std::to_string(width) + ")");
  }
  const std::size_t sites = static_cast<std::size_t>(cells) * width;
  data_.assign(sites, W{});
  slot_of_site_.assign(sites, -1);
  word_old_.resize(width);
  word_landed_.resize(width);
  // A typical mixed batch touches a handful of sites per lane; the
  // wide instantiations cap the reserve so one batch ram stays a few
  // hundred KB and grows amortized past it instead.
  const std::size_t reserve = 6 * std::min<unsigned>(kLanes, 64);
  slots_.reserve(reserve);
  dirty_sites_.reserve(reserve);
}

template <typename W>
void PackedFaultRamT<W>::reset() {
  std::fill(data_.begin(), data_.end(), W{});
  for (const std::size_t site : dirty_sites_) slot_of_site_[site] = -1;
  slots_.clear();
  dirty_sites_.clear();
  forced1_ = W{};
  cfst_state1_ = W{};
  bridge_or_ = W{};
  npsf_lanes_ = W{};
  npat_.fill(W{});
  nval_.fill(W{});
  npsf_forced1_ = W{};
  drf_decay1_ = W{};
  drf_refreshed_.fill(0);
  drf_delay_.fill(0);
  lanes_used_ = 0;
  has_two_cell_ = false;
  has_af_ = false;
  has_npsf_ = false;
  has_drf_ = false;
  has_sof_ = false;
  last_read_.fill(W{});
  reads_ = 0;
  writes_ = 0;
  idle_ticks_ = 0;
}

template <typename W>
typename PackedFaultRamT<W>::CellFaults& PackedFaultRamT<W>::slot_for(
    std::size_t site) {
  if (slot_of_site_[site] < 0) {
    slot_of_site_[site] = static_cast<std::int16_t>(slots_.size());
    slots_.emplace_back();
    dirty_sites_.push_back(site);
  }
  return slots_[static_cast<std::size_t>(slot_of_site_[site])];
}

template <typename W>
unsigned PackedFaultRamT<W>::add_fault(const Fault& fault) {
  // The rule FaultyRam::inject applies, so a campaign throws on exactly
  // the faults the scalar reference throws on.
  validate_fault(fault, size_, width_);
  if (lanes_used_ >= kLanes) {
    throw std::length_error("PackedFaultRam::add_fault: all lanes taken");
  }
  // An SOF lane echoes the previous read, and reads record it only
  // while the batch holds an SOF lane: a read already served went
  // unrecorded, so this lane could not echo it.
  if (fault.kind == FaultKind::kSof && reads_ > 0) {
    throw std::logic_error(
        "PackedFaultRam::add_fault: SOF lane added after " +
        std::to_string(reads_) +
        " read(s), whose sense-amp history was not kept (fill a fresh or "
        "reset ram first): " +
        fault.describe());
  }
  const unsigned lane = lanes_used_++;
  has_two_cell_ = has_two_cell_ || is_coupling(fault.kind);
  const W mask = lane_bit<W>(lane);
  const std::size_t vic = site_of(fault.victim.cell, fault.victim.bit);
  const std::size_t agg = site_of(fault.aggressor.cell, fault.aggressor.bit);
  // Forces a site's lane bit to `value`, the packed equivalent of
  // FaultyRam's injection-time condition enforcement.
  auto force_bit = [&](std::size_t site, unsigned value) {
    lane_assign(data_[site], lane, value != 0);
  };
  switch (fault.kind) {
    case FaultKind::kSaf0:
      slot_for(vic).saf0 |= mask;
      // Stuck-at victims hold from injection, matching FaultyRam.
      force_bit(vic, 0);
      break;
    case FaultKind::kSaf1:
      slot_for(vic).saf1 |= mask;
      force_bit(vic, 1);
      break;
    case FaultKind::kTfUp:
      slot_for(vic).tf_up |= mask;
      break;
    case FaultKind::kTfDown:
      slot_for(vic).tf_down |= mask;
      break;
    case FaultKind::kWdf:
      slot_for(vic).wdf |= mask;
      break;
    case FaultKind::kRdf:
      slot_for(vic).rdf |= mask;
      break;
    case FaultKind::kDrdf:
      slot_for(vic).drdf |= mask;
      break;
    case FaultKind::kIrf:
      slot_for(vic).irf |= mask;
      break;
    case FaultKind::kSof:
      slot_for(vic).sof |= mask;
      has_sof_ = true;
      break;
    case FaultKind::kCfIn:
      slot_for(agg).cfin |= mask;
      lane_victim_[lane] = vic;
      break;
    case FaultKind::kCfIdUp0:
    case FaultKind::kCfIdUp1:
      slot_for(agg).cfid_up |= mask;
      lane_victim_[lane] = vic;
      if (fault.kind == FaultKind::kCfIdUp1) forced1_ |= mask;
      break;
    case FaultKind::kCfIdDown0:
    case FaultKind::kCfIdDown1:
      slot_for(agg).cfid_down |= mask;
      lane_victim_[lane] = vic;
      if (fault.kind == FaultKind::kCfIdDown1) forced1_ |= mask;
      break;
    case FaultKind::kCfSt0:
    case FaultKind::kCfSt1: {
      // A trigger state beyond {0, 1} never matches a stored bit: inert
      // in FaultyRam, so the lane registers nothing and never
      // mismatches (like an incomplete NPSF neighbourhood).
      if (fault.state > 1) break;
      slot_for(agg).cfst_agg |= mask;
      slot_for(vic).cfst_vic |= mask;
      lane_victim_[lane] = vic;
      lane_aggressor_[lane] = agg;
      const unsigned forced = fault.kind == FaultKind::kCfSt1 ? 1U : 0U;
      if (forced) forced1_ |= mask;
      if (fault.state & 1U) cfst_state1_ |= mask;
      // A freshly injected state condition is enforced against the
      // current contents immediately (a defect's effect holds from the
      // moment it exists).
      if (lane_test(data_[agg], lane) == ((fault.state & 1U) != 0)) {
        force_bit(vic, forced);
      }
      break;
    }
    case FaultKind::kAfNoAccess:
    case FaultKind::kAfWrongAccess:
    case FaultKind::kAfMultiAccess: {
      // Decoder faults remap the whole word access, so the masks go on
      // every site of the faulty address.
      for (unsigned p = 0; p < width_; ++p) {
        CellFaults& s = slot_for(site_of(fault.victim.cell, p));
        if (fault.kind == FaultKind::kAfNoAccess) {
          s.af_no |= mask;
        } else if (fault.kind == FaultKind::kAfWrongAccess) {
          s.af_wrong |= mask;
        } else {
          s.af_multi |= mask;
        }
      }
      if (fault.kind != FaultKind::kAfNoAccess) {
        lane_victim_[lane] = fault.alias;  // alias *cell*, plane per access
      }
      has_af_ = true;
      break;
    }
    case FaultKind::kBridgeAnd:
    case FaultKind::kBridgeOr: {
      slot_for(vic).bridge |= mask;
      slot_for(agg).bridge |= mask;
      lane_victim_[lane] = vic;
      lane_aggressor_[lane] = agg;
      const bool wired_or = fault.kind == FaultKind::kBridgeOr;
      if (wired_or) bridge_or_ |= mask;
      const bool a = lane_test(data_[vic], lane);
      const bool b = lane_test(data_[agg], lane);
      const unsigned tied =
          static_cast<unsigned>(wired_or ? (a || b) : (a && b));
      force_bit(vic, tied);
      force_bit(agg, tied);
      break;
    }
    case FaultKind::kNpsfStatic: {
      // Type-1 five-cell static NPSF.  An incomplete neighbourhood is
      // inert in FaultyRam (enforce_conditions breaks before the
      // pattern test), so the lane is consumed but registers nothing
      // and never mismatches.
      const Addr cols = fault.grid_cols;
      const Addr v = fault.victim.cell;
      bool inert = cols == 0 || fault.pattern > 15;
      if (!inert) {
        const Addr row = v / cols;
        const Addr col = v % cols;
        inert = row == 0 || col == 0 || col + 1 >= cols || v + cols >= size_;
      }
      if (inert) break;
      const unsigned plane = fault.victim.bit;
      const std::size_t north = site_of(v - cols, plane);
      const std::size_t east = site_of(v + 1, plane);
      const std::size_t south = site_of(v + cols, plane);
      const std::size_t west = site_of(v - 1, plane);
      slot_for(north).npsf_n |= mask;
      slot_for(east).npsf_e |= mask;
      slot_for(south).npsf_s |= mask;
      slot_for(west).npsf_w |= mask;
      slot_for(vic).npsf_vic |= mask;
      lane_victim_[lane] = vic;
      npsf_lanes_ |= mask;
      has_npsf_ = true;
      if (fault.state & 1U) npsf_forced1_ |= mask;
      // Pattern bits are (N << 3) | (E << 2) | (S << 1) | W, matching
      // FaultyRam::enforce_conditions.
      if (fault.pattern & 8U) npat_[0] |= mask;
      if (fault.pattern & 4U) npat_[1] |= mask;
      if (fault.pattern & 2U) npat_[2] |= mask;
      if (fault.pattern & 1U) npat_[3] |= mask;
      // Seed the neighbour-value caches from the current contents (the
      // lane is fresh, so its cache bits start clear) and enforce the
      // freshly injected condition immediately.
      if (lane_test(data_[north], lane)) nval_[0] |= mask;
      if (lane_test(data_[east], lane)) nval_[1] |= mask;
      if (lane_test(data_[south], lane)) nval_[2] |= mask;
      if (lane_test(data_[west], lane)) nval_[3] |= mask;
      const W mismatched = ((nval_[0] ^ npat_[0]) | (nval_[1] ^ npat_[1]) |
                            (nval_[2] ^ npat_[2]) | (nval_[3] ^ npat_[3])) &
                           mask;
      if (!lane_any(mismatched)) {
        force_bit(vic, static_cast<unsigned>(fault.state & 1U));
      }
      break;
    }
    case FaultKind::kDrf: {
      slot_for(vic).drf |= mask;
      lane_victim_[lane] = vic;
      // The charge is stamped with the current clock, like FaultyRam's
      // refreshed_at_.push_back(clock_) at inject.
      drf_refreshed_[lane] = clock();
      drf_delay_[lane] = fault.delay;
      if (fault.state & 1U) drf_decay1_ |= mask;
      has_drf_ = true;
      break;
    }
  }
  return lane;
}

template <typename W>
typename PackedFaultRamT<W>::LaneState PackedFaultRamT<W>::save_lane(
    unsigned lane, const Fault& fault) const {
  assert(lane < lanes_used_);
  LaneState state;
  state.victim =
      lane_test(data_[site_of(fault.victim.cell, fault.victim.bit)], lane);
  if (is_coupling(fault.kind)) {
    state.aggressor = lane_test(
        data_[site_of(fault.aggressor.cell, fault.aggressor.bit)], lane);
  }
  // Bits are packed by shifting the tested bit itself, never a raw
  // single-lane constant: the lane words stay behind mem/lane_word.hpp.
  if (fault.kind == FaultKind::kSof) {
    for (unsigned p = 0; p < width_; ++p) {
      state.sense |= static_cast<std::uint32_t>(lane_test(last_read_[p], lane))
                     << p;
    }
  }
  if (fault.kind == FaultKind::kNpsfStatic) {
    for (unsigned d = 0; d < 4; ++d) {
      state.neighbours = static_cast<std::uint8_t>(
          state.neighbours |
          (static_cast<unsigned>(lane_test(nval_[d], lane)) << d));
    }
  }
  return state;
}

template <typename W>
unsigned PackedFaultRamT<W>::add_fault(const Fault& fault,
                                       const LaneState& state) {
  // add_fault enforces the fault's conditions against this ram's
  // contents; the saved bits below overwrite whatever it forced with
  // the consistent state the lane left.
  const unsigned lane = add_fault(fault);
  lane_assign(data_[site_of(fault.victim.cell, fault.victim.bit)], lane,
              state.victim);
  if (is_coupling(fault.kind)) {
    lane_assign(data_[site_of(fault.aggressor.cell, fault.aggressor.bit)],
                lane, state.aggressor);
  }
  if (fault.kind == FaultKind::kSof) {
    for (unsigned p = 0; p < width_; ++p) {
      lane_assign(last_read_[p], lane, ((state.sense >> p) & 1U) != 0);
    }
  }
  if (fault.kind == FaultKind::kNpsfStatic) {
    for (unsigned d = 0; d < 4; ++d) {
      lane_assign(nval_[d], lane, ((state.neighbours >> d) & 1U) != 0);
    }
  }
  return lane;
}

template <typename W>
void PackedFaultRamT<W>::read_word(Addr cell, W* out) {
  assert(cell < size_);
  ++reads_;
  const std::size_t base = static_cast<std::size_t>(cell) * width_;
  for (unsigned p = 0; p < width_; ++p) {
    const std::size_t site = base + p;
    const std::int16_t slot = slot_of_site_[site];
    out[p] = slot >= 0
                 ? read_site(site, p, slots_[static_cast<std::size_t>(slot)])
                 : data_[site];
  }
  // The sense-amp history updates with the whole returned word, after
  // every plane's patches (FaultyRam stores last_read_ once per read);
  // only an SOF lane ever reads it.
  if (has_sof_) std::copy_n(out, width_, last_read_.begin());
}

template <typename W>
void PackedFaultRamT<W>::write_word(Addr cell, const W* planes) {
  assert(cell < size_);
  ++writes_;
  const std::size_t base = static_cast<std::size_t>(cell) * width_;
  W* const old = word_old_.data();
  W* const landed = word_landed_.data();
  bool any_slot = false;
  // Phase 1: land every plane (WDF/TF/SAF per site, decoder
  // suppression) without firing coupling, so intra-word aggressor
  // transitions see their victims' *new* values — all bits of a word
  // write switch together (FaultyRam::physical_write does the same).
  // Phase 2 reads old/landed only at faulty planes, so a fault-free
  // plane stores neither.
  for (unsigned p = 0; p < width_; ++p) {
    const std::size_t site = base + p;
    const std::int16_t slot = slot_of_site_[site];
    if (slot < 0) {
      data_[site] = planes[p];
      continue;
    }
    any_slot = true;
    old[p] = data_[site];
    landed[p] = write_site(site, p, old[p], planes[p],
                           slots_[static_cast<std::size_t>(slot)]);
  }
  if (!any_slot || !(has_two_cell_ || has_npsf_)) return;
  // Phase 2: coupling fires per plane in ascending order against the
  // landed values (not the post-coupling state — FaultyRam computes
  // its transition set from `old` vs `landed` too), then the NPSF
  // neighbourhood re-check runs for every touched site.
  for (unsigned p = 0; p < width_; ++p) {
    const std::size_t site = base + p;
    const std::int16_t slot = slot_of_site_[site];
    if (slot < 0) continue;
    const CellFaults& f = slots_[static_cast<std::size_t>(slot)];
    if (has_two_cell_ && lane_any(f.coupling_any())) {
      apply_coupling(site, old[p], landed[p], f);
    }
  }
  if (has_npsf_) {
    for (unsigned p = 0; p < width_; ++p) {
      const std::size_t site = base + p;
      const std::int16_t slot = slot_of_site_[site];
      if (slot < 0) continue;
      const CellFaults& f = slots_[static_cast<std::size_t>(slot)];
      if (lane_any(f.npsf_any())) apply_npsf(site, f);
    }
  }
}

template <typename W>
W PackedFaultRamT<W>::apply_af_read(W value, const CellFaults& f,
                                    unsigned plane) {
  // Per-lane scatter over the few decoder lanes remapping this cell.
  for_each_set_lane(f.af_wrong, [&](unsigned lane) {
    const W bit = lane_bit<W>(lane);
    const std::size_t alias =
        site_of(static_cast<Addr>(lane_victim_[lane]), plane);
    // Wrong access: the sense amp sees the alias cell.
    value = (value & ~bit) | (data_[alias] & bit);
  });
  for_each_set_lane(f.af_multi, [&](unsigned lane) {
    const W bit = lane_bit<W>(lane);
    const std::size_t alias =
        site_of(static_cast<Addr>(lane_victim_[lane]), plane);
    // Multi access: wired-AND of the addressed cell (already in
    // `value` — AF lanes carry no read-logic fault) and the alias.
    value &= ~bit | data_[alias];
  });
  return value;
}

template <typename W>
void PackedFaultRamT<W>::apply_af_write(const W& value, const CellFaults& f,
                                        unsigned plane) {
  for_each_set_lane(f.af_wrong | f.af_multi, [&](unsigned lane) {
    const W bit = lane_bit<W>(lane);
    const std::size_t alias =
        site_of(static_cast<Addr>(lane_victim_[lane]), plane);
    data_[alias] = (data_[alias] & ~bit) | (value & bit);
  });
}

template <typename W>
void PackedFaultRamT<W>::apply_retention(std::size_t site, const W& m) {
  const std::uint64_t now = clock();
  for_each_set_lane(m, [&](unsigned lane) {
    // Overflow-safe subtraction, same comparison FaultyRam uses; the
    // charge stamp is *not* refreshed, so the re-force is idempotent
    // until the next write.
    if (now - drf_refreshed_[lane] < drf_delay_[lane]) return;
    lane_assign(data_[site], lane, lane_test(drf_decay1_, lane));
  });
}

template <typename W>
void PackedFaultRamT<W>::refresh_retention(const W& m) {
  const std::uint64_t now = clock();
  for_each_set_lane(m, [&](unsigned lane) { drf_refreshed_[lane] = now; });
}

template <typename W>
void PackedFaultRamT<W>::apply_npsf(std::size_t site, const CellFaults& f) {
  // Refresh the direction caches for every lane whose neighbour is
  // this site, then match all lanes' patterns at once: a lane matches
  // when each cached neighbour value equals its pattern bit, i.e. when
  // it contributes no bit to any direction's XOR.
  const W v = data_[site];
  nval_[0] = (nval_[0] & ~f.npsf_n) | (v & f.npsf_n);
  nval_[1] = (nval_[1] & ~f.npsf_e) | (v & f.npsf_e);
  nval_[2] = (nval_[2] & ~f.npsf_s) | (v & f.npsf_s);
  nval_[3] = (nval_[3] & ~f.npsf_w) | (v & f.npsf_w);
  const W match =
      npsf_lanes_ & ~((nval_[0] ^ npat_[0]) | (nval_[1] ^ npat_[1]) |
                      (nval_[2] ^ npat_[2]) | (nval_[3] ^ npat_[3]));
  // Only lanes whose neighbourhood this write touched fire (FaultyRam's
  // `touched` test).  That is exact, not an optimisation: a lane whose
  // pattern already matched before this write had its victim forced
  // when the pattern last became true — nothing else can move an NPSF
  // lane's bits, because the lane holds no other fault.
  for_each_set_lane(match & f.npsf_any(), [&](unsigned lane) {
    const std::size_t vic = lane_victim_[lane];
    lane_assign(data_[vic], lane, lane_test(npsf_forced1_, lane));
  });
}

template <typename W>
void PackedFaultRamT<W>::apply_coupling(std::size_t site, const W& old,
                                        const W& now, const CellFaults& f) {
  // Per-lane scatter over the few lanes coupled to this site.  Lanes
  // are disjoint across the masks (one fault per lane), so the order
  // of the blocks is irrelevant.
  auto force = [&](std::size_t s, unsigned lane) {
    lane_assign(data_[s], lane, lane_test(forced1_, lane));
  };
  const W up = now & ~old;
  const W down = old & ~now;

  // CFin: any transition of this (aggressor) site inverts the victim.
  for_each_set_lane(f.cfin & (up | down), [&](unsigned lane) {
    data_[lane_victim_[lane]] ^= lane_bit<W>(lane);
  });

  // CFid: a matching-direction transition forces the victim.
  for_each_set_lane((f.cfid_up & up) | (f.cfid_down & down),
                    [&](unsigned lane) { force(lane_victim_[lane], lane); });

  // CFst, this site as aggressor: the condition is state-based, so it
  // is re-evaluated against the landed value on every write (matching
  // FaultyRam's enforce_conditions after each physical_write).
  for_each_set_lane(f.cfst_agg & ~(now ^ cfst_state1_),
                    [&](unsigned lane) { force(lane_victim_[lane], lane); });

  // CFst, this site as victim: a write under a holding condition is
  // forced straight back.
  for_each_set_lane(f.cfst_vic, [&](unsigned lane) {
    if (lane_test(data_[lane_aggressor_[lane]], lane) ==
        lane_test(cfst_state1_, lane)) {
      force(site, lane);
    }
  });

  // Bridge: tie both endpoints to the wired-AND/OR of their bits.
  for_each_set_lane(f.bridge, [&](unsigned lane) {
    const std::size_t other =
        site == lane_victim_[lane] ? lane_aggressor_[lane] : lane_victim_[lane];
    const bool a = lane_test(data_[site], lane);
    const bool b = lane_test(data_[other], lane);
    const bool tied = lane_test(bridge_or_, lane) ? (a || b) : (a && b);
    lane_assign(data_[site], lane, tied);
    lane_assign(data_[other], lane, tied);
  });
}

template class PackedFaultRamT<LaneWord>;
template class PackedFaultRamT<WideWord<8>>;

}  // namespace prt::mem
