#include "mem/fault_injector.hpp"

#include <cassert>

namespace prt::mem {

namespace {
constexpr int kMaxCascadeDepth = 8;
}

FaultyRam::FaultyRam(Addr cells, unsigned width_bits, unsigned port_count)
    : ram_(cells, width_bits, port_count) {}

void FaultyRam::inject(const Fault& fault) {
  validate_fault(fault, size(), width());
  faults_.push_back(fault);
  refreshed_at_.push_back(clock_);
  has_address_fault_ = has_address_fault_ || is_address_fault(fault.kind);
  has_retention_fault_ =
      has_retention_fault_ || fault.kind == FaultKind::kDrf;
  // A defect's effect holds from the moment it exists, not only from
  // the first write it observes — and regardless of injection order:
  //  * stuck-at victims are clamped to their stuck value now (the
  //    write path and set_bit cascades clamp on their own), and the
  //    clamp is a state perturbation, so static conditions touching
  //    the cell are re-applied;
  //  * a freshly injected static condition (bridge tie, CFst, NPSF)
  //    is enforced against the current state immediately.
  // Dynamic (transition-triggered) couplings do not fire — a defect
  // appearing is not a write edge.
  switch (fault.kind) {
    case FaultKind::kSaf0:
    case FaultKind::kSaf1:
      enforce_saf(fault.victim.cell);
      enforce_conditions(fault.victim.cell, 0);
      break;
    case FaultKind::kCfSt0:
    case FaultKind::kCfSt1:
    case FaultKind::kBridgeAnd:
    case FaultKind::kBridgeOr:
    case FaultKind::kNpsfStatic:
      enforce_conditions(fault.victim.cell, 0);
      break;
    default:
      break;
  }
}

DecodedAccess FaultyRam::decode(Addr addr) const {
  DecodedAccess acc;
  acc.cells[0] = addr;
  acc.count = 1;
  if (!has_address_fault_) return acc;
  for (const Fault& f : faults_) {
    if (!is_address_fault(f.kind) || f.victim.cell != addr) continue;
    switch (f.kind) {
      case FaultKind::kAfNoAccess:
        acc.count = 0;
        return acc;
      case FaultKind::kAfWrongAccess:
        acc.cells[0] = f.alias;
        acc.count = 1;
        return acc;
      case FaultKind::kAfMultiAccess:
        acc.cells[1] = f.alias;
        acc.count = 2;
        return acc;
      default:
        break;
    }
  }
  return acc;
}

void FaultyRam::enforce_saf(Addr cell) {
  for (const Fault& f : faults_) {
    if (f.victim.cell != cell) continue;
    if (f.kind == FaultKind::kSaf0) {
      ram_.poke(cell, ram_.peek(cell) & ~(Word{1} << f.victim.bit));
    } else if (f.kind == FaultKind::kSaf1) {
      ram_.poke(cell, ram_.peek(cell) | (Word{1} << f.victim.bit));
    }
  }
}

void FaultyRam::enforce_conditions(Addr cell, int depth) {
  if (depth > kMaxCascadeDepth) return;
  for (const Fault& f : faults_) {
    switch (f.kind) {
      case FaultKind::kCfSt0:
      case FaultKind::kCfSt1: {
        // Victim forced while the aggressor bit sits in the trigger
        // state; re-check whenever either the aggressor's cell (state
        // change) or the victim's cell (write under the condition) was
        // touched.
        if (f.aggressor.cell != cell && f.victim.cell != cell) break;
        if (stored_bit(f.aggressor.cell, f.aggressor.bit) != f.state) break;
        const unsigned forced = f.kind == FaultKind::kCfSt1 ? 1U : 0U;
        if (stored_bit(f.victim.cell, f.victim.bit) != forced) {
          set_bit(f.victim.cell, f.victim.bit, forced, depth + 1);
        }
        break;
      }
      case FaultKind::kBridgeAnd:
      case FaultKind::kBridgeOr: {
        if (f.victim.cell != cell && f.aggressor.cell != cell) break;
        const unsigned a = stored_bit(f.victim.cell, f.victim.bit);
        const unsigned b = stored_bit(f.aggressor.cell, f.aggressor.bit);
        const unsigned tied =
            f.kind == FaultKind::kBridgeAnd ? (a & b) : (a | b);
        if (a != tied) {
          set_bit(f.victim.cell, f.victim.bit, tied, depth + 1);
        }
        if (b != tied) {
          set_bit(f.aggressor.cell, f.aggressor.bit, tied, depth + 1);
        }
        break;
      }
      case FaultKind::kNpsfStatic: {
        // Type-1 (five-cell) static NPSF on a grid of f.grid_cols
        // columns: when the N,E,S,W neighbours (same bit plane) match
        // the 4-bit pattern, the base cell is forced to f.state.
        const Addr cols = f.grid_cols;
        if (cols == 0) break;
        const Addr v = f.victim.cell;
        const Addr row = v / cols;
        const Addr col = v % cols;
        if (row == 0 || col == 0 || col + 1 >= cols ||
            v + cols >= size()) {
          break;  // border cells have no full neighbourhood
        }
        const Addr north = v - cols;
        const Addr east = v + 1;
        const Addr south = v + cols;
        const Addr west = v - 1;
        const bool touched = cell == north || cell == east ||
                             cell == south || cell == west || cell == v;
        if (!touched) break;
        const unsigned actual =
            (stored_bit(north, f.victim.bit) << 3) |
            (stored_bit(east, f.victim.bit) << 2) |
            (stored_bit(south, f.victim.bit) << 1) |
            stored_bit(west, f.victim.bit);
        if (actual != f.pattern) break;
        const unsigned forced = static_cast<unsigned>(f.state & 1U);
        if (stored_bit(v, f.victim.bit) != forced) {
          set_bit(v, f.victim.bit, forced, depth + 1);
        }
        break;
      }
      default:
        break;
    }
  }
}

void FaultyRam::set_bit(Addr cell, unsigned bit, unsigned value, int depth) {
  if (depth > kMaxCascadeDepth) return;
  const unsigned old = stored_bit(cell, bit);
  // Stuck-at victims never move.
  for (const Fault& f : faults_) {
    if (f.victim.cell == cell && f.victim.bit == bit) {
      if (f.kind == FaultKind::kSaf0) value = 0;
      if (f.kind == FaultKind::kSaf1) value = 1;
    }
  }
  if (old == value) return;
  Word w = ram_.peek(cell);
  w = value ? (w | (Word{1} << bit)) : (w & ~(Word{1} << bit));
  ram_.poke(cell, w);
  fire_transition(cell, bit, value == 1, depth);
  enforce_conditions(cell, depth);
}

void FaultyRam::fire_transition(Addr cell, unsigned bit, bool up,
                                int depth) {
  if (depth > kMaxCascadeDepth) return;
  for (const Fault& f : faults_) {
    if (!is_coupling(f.kind)) continue;
    if (f.aggressor.cell != cell || f.aggressor.bit != bit) continue;
    switch (f.kind) {
      case FaultKind::kCfIn: {
        const unsigned cur = stored_bit(f.victim.cell, f.victim.bit);
        set_bit(f.victim.cell, f.victim.bit, cur ^ 1U, depth + 1);
        break;
      }
      case FaultKind::kCfIdUp0:
        if (up) set_bit(f.victim.cell, f.victim.bit, 0, depth + 1);
        break;
      case FaultKind::kCfIdUp1:
        if (up) set_bit(f.victim.cell, f.victim.bit, 1, depth + 1);
        break;
      case FaultKind::kCfIdDown0:
        if (!up) set_bit(f.victim.cell, f.victim.bit, 0, depth + 1);
        break;
      case FaultKind::kCfIdDown1:
        if (!up) set_bit(f.victim.cell, f.victim.bit, 1, depth + 1);
        break;
      default:
        break;
    }
  }
  enforce_conditions(cell, depth);
}

void FaultyRam::physical_write(Addr cell, Word value) {
  // Phase 1: land the whole word (TF/WDF/SAF applied per bit) without
  // firing coupling, so intra-word aggressor transitions see their
  // victims' *new* values — all bits of a word write switch together.
  const Word old = ram_.peek(cell);
  Word landed = 0;
  for (unsigned bit = 0; bit < width(); ++bit) {
    const unsigned ob = (old >> bit) & 1U;
    unsigned nb = (value >> bit) & 1U;
    for (const Fault& f : faults_) {
      if (f.victim.cell != cell || f.victim.bit != bit) continue;
      switch (f.kind) {
        case FaultKind::kTfUp:
          if (ob == 0 && nb == 1) nb = 0;  // up-transition fails
          break;
        case FaultKind::kTfDown:
          if (ob == 1 && nb == 0) nb = 1;  // down-transition fails
          break;
        case FaultKind::kWdf:
          if (ob == nb) nb = ob ^ 1U;  // non-transition write disturbs
          break;
        case FaultKind::kSaf0:
          nb = 0;
          break;
        case FaultKind::kSaf1:
          nb = 1;
          break;
        default:
          break;
      }
    }
    landed |= Word{nb} << bit;
  }
  ram_.poke(cell, landed);

  // A write refreshes the charge of every retention victim in the cell.
  if (has_retention_fault_) {
    for (std::size_t i = 0; i < faults_.size(); ++i) {
      if (faults_[i].kind == FaultKind::kDrf &&
          faults_[i].victim.cell == cell) {
        refreshed_at_[i] = clock_;
      }
    }
  }

  // Phase 2: fire coupling/condition effects for every actual bit
  // transition of this write.
  for (unsigned bit = 0; bit < width(); ++bit) {
    const unsigned ob = (old >> bit) & 1U;
    const unsigned nb = (landed >> bit) & 1U;
    if (ob != nb) fire_transition(cell, bit, nb == 1, 0);
  }
  enforce_conditions(cell, 0);
}

void FaultyRam::apply_retention(Addr cell) {
  if (!has_retention_fault_) return;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const Fault& f = faults_[i];
    if (f.kind != FaultKind::kDrf || f.victim.cell != cell) continue;
    if (clock_ - refreshed_at_[i] < f.delay) continue;
    const unsigned decayed = static_cast<unsigned>(f.state & 1U);
    if (stored_bit(cell, f.victim.bit) != decayed) {
      set_bit(cell, f.victim.bit, decayed, 0);
    }
  }
}

Word FaultyRam::physical_read(Addr cell, unsigned port) {
  apply_retention(cell);
  Word value = ram_.peek(cell);
  for (const Fault& f : faults_) {
    if (f.victim.cell != cell) continue;
    const unsigned bit = f.victim.bit;
    const unsigned stored = (value >> bit) & 1U;
    switch (f.kind) {
      case FaultKind::kRdf:
        // Cell flips; the sense amp sees the flipped value.
        set_bit(cell, bit, stored ^ 1U, 0);
        value = ram_.peek(cell);
        break;
      case FaultKind::kDrdf:
        // Correct value returned, cell flips behind the reader's back.
        set_bit(cell, bit, stored ^ 1U, 0);
        // `value` keeps the pre-flip bit.
        break;
      case FaultKind::kIrf:
        value ^= Word{1} << bit;  // inverted data, cell untouched
        break;
      case FaultKind::kSof: {
        // Open cell: the sense amp retains its previous value.
        const unsigned prev = (last_read_[port] >> bit) & 1U;
        value = prev ? (value | (Word{1} << bit))
                     : (value & ~(Word{1} << bit));
        break;
      }
      default:
        break;
    }
  }
  return value & word_mask();
}

Word FaultyRam::read(Addr addr, unsigned port) {
  assert(addr < size() && port < ports());
  ++stats_[port].reads;
  ++clock_;
  const DecodedAccess acc = decode(addr);
  Word value = 0;
  if (acc.count == 0) {
    value = 0;  // floating data bus modelled as reading zeros
  } else if (acc.count == 1) {
    value = physical_read(acc.cells[0], port);
  } else {
    // Multi-access read: wired-AND of the opened cells.
    value = physical_read(acc.cells[0], port) &
            physical_read(acc.cells[1], port);
  }
  last_read_[port] = value;
  return value;
}

void FaultyRam::write(Addr addr, Word value, unsigned port) {
  assert(addr < size() && port < ports());
  ++stats_[port].writes;
  ++clock_;
  const DecodedAccess acc = decode(addr);
  for (unsigned i = 0; i < acc.count; ++i) {
    physical_write(acc.cells[i], value & word_mask());
  }
}

}  // namespace prt::mem
