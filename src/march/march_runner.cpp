#include "march/march_runner.hpp"

#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

#include "util/bitops.hpp"

namespace prt::march {

namespace {

/// Applies one March element at a single address, updating the result.
/// Returns false when an early abort fired (stop the whole run).
bool apply_ops(const MarchElement& elem, mem::Memory& memory,
               mem::Addr addr, mem::Word bg, const MarchRunOptions& options,
               MarchResult& result) {
  const mem::Word mask = memory.word_mask();
  for (const MarchOp& op : elem.ops) {
    const mem::Word data = (op.data == 0 ? bg : ~bg) & mask;
    if (op.is_read()) {
      const mem::Word got = memory.read(addr, 0);
      ++result.ops;
      if (got != data) {
        if (!result.fail) {
          result.first_addr = addr;
          result.first_expected = data;
          result.first_actual = got;
        }
        result.fail = true;
        ++result.mismatches;
        if (options.early_abort) return false;
      }
    } else {
      memory.write(addr, data, 0);
      ++result.ops;
    }
  }
  return true;
}

}  // namespace

MarchResult run_march(const MarchTest& test, mem::Memory& memory,
                      mem::Word background, std::uint64_t delay_ticks,
                      const MarchRunOptions& options) {
  MarchResult result;
  const mem::Addr n = memory.size();
  for (const MarchElement& elem : test.elements) {
    if (elem.is_delay) {
      memory.advance_time(delay_ticks);
      continue;
    }
    if (elem.order == Order::kDown) {
      for (mem::Addr i = n; i-- > 0;) {
        if (!apply_ops(elem, memory, i, background, options, result)) {
          return result;
        }
      }
    } else {
      for (mem::Addr i = 0; i < n; ++i) {
        if (!apply_ops(elem, memory, i, background, options, result)) {
          return result;
        }
      }
    }
  }
  return result;
}

namespace {

/// Appends one run of `test` over the transcript's n cells, data index
/// 0 = `bg` and index 1 = its complement within `mask`.
void append_run(core::OpTranscript& t, const MarchTest& test, mem::Word bg,
                mem::Word mask) {
  const mem::Addr n = t.n;
  for (const MarchElement& elem : test.elements) {
    core::MarchSegment seg;
    seg.begin = t.recs.size();
    if (elem.is_delay) {
      seg.end = seg.begin;
      seg.is_delay = true;
      t.march.push_back(seg);
      continue;
    }
    if (elem.ops.empty() || elem.ops.size() > 32) {
      throw std::invalid_argument(
          "make_march_transcript: element needs 1..32 ops (read_mask "
          "width), got " +
          std::to_string(elem.ops.size()));
    }
    seg.period = static_cast<std::uint32_t>(elem.ops.size());
    for (std::uint32_t j = 0; j < seg.period; ++j) {
      if (elem.ops[j].is_read()) {
        seg.read_mask |= std::uint32_t{1} << j;
        t.total_reads += n;
      } else {
        t.total_writes += n;
      }
    }
    auto emit = [&](mem::Addr addr) {
      for (const MarchOp& op : elem.ops) {
        t.recs.push_back({addr, op.data == 0 ? bg : bg ^ mask});
      }
    };
    if (elem.order == Order::kDown) {
      for (mem::Addr i = n; i-- > 0;) emit(i);
    } else {
      for (mem::Addr i = 0; i < n; ++i) emit(i);
    }
    seg.end = t.recs.size();
    t.march.push_back(seg);
  }
}

/// The replay loop shared by both access paths: read(addr, golden)
/// returns the lanes whose read deviates from `golden`, write(addr,
/// golden) broadcasts it.  One op index runs across every background,
/// so the abort accounting is the abort-aware sweep's: a lane's scalar
/// abort run stops at its first mismatching read having issued exactly
/// op_idx ops.
template <typename W, typename Read, typename Write>
core::PackedVerdictT<W> replay(mem::PackedFaultRamT<W>& ram,
                               const core::OpTranscript& t,
                               const MarchRunOptions& options, Read&& read,
                               Write&& write) {
  core::LaneLatch<W> latch(ram.active_mask());
  std::uint64_t op_idx = 0;
  for (const core::MarchSegment& seg : t.march) {
    if (seg.is_delay) {
      ram.advance_time(t.delay_ticks);
      continue;
    }
    const core::OpRec* r = t.recs.data() + seg.begin;
    const core::OpRec* const end = t.recs.data() + seg.end;
    const std::uint32_t period = seg.period;
    const std::uint32_t read_mask = seg.read_mask;
    while (r != end) {
      for (std::uint32_t j = 0; j < period; ++j, ++r) {
        ++op_idx;
        if ((read_mask >> j) & 1U) {
          latch.mismatch |= read(r->addr, r->golden);
          if (options.early_abort && latch.retire(op_idx)) {
            return latch.finish(t.total_ops());
          }
        } else {
          write(r->addr, r->golden);
        }
      }
    }
    // Once every lane has latched, no later element can change a
    // verdict or a charge, early abort or not: stop.
    if (latch.decided()) break;
  }
  return latch.finish(t.total_ops());
}

}  // namespace

core::OpTranscript make_march_transcript(const MarchTest& test, mem::Addr n,
                                         bool background,
                                         std::uint64_t delay_ticks,
                                         unsigned m) {
  // Malformed tests must fail loudly in release campaigns too (same
  // precedent as FaultyRam::inject): a silent mis-compiled read_mask
  // would corrupt coverage numbers instead of crashing.
  if (n < 1) {
    throw std::invalid_argument("make_march_transcript: n must be >= 1");
  }
  if (m < 1 || m > 32) {
    throw std::invalid_argument(
        "make_march_transcript: m must be in [1, 32] (got " +
        std::to_string(m) + ")");
  }
  const auto mask = static_cast<mem::Word>(low_mask(m));
  const std::vector<mem::Word> backgrounds = standard_backgrounds(m);
  // standard_backgrounds' contract: every background fits the m-bit
  // word.  A wider one would silently mis-expand data index 1
  // (~background).
  for (const mem::Word bg : backgrounds) {
    if ((bg & ~mask) != 0) {
      throw std::invalid_argument(
          "make_march_transcript: background " + std::to_string(bg) +
          " wider than the m = " + std::to_string(m) + " word");
    }
  }
  core::OpTranscript t;
  t.n = n;
  t.width = m;
  t.delay_ticks = delay_ticks;
  std::size_t rec_count = 0;
  for (const MarchElement& elem : test.elements) {
    if (!elem.is_delay) rec_count += elem.ops.size() * n;
  }
  t.recs.reserve(rec_count * backgrounds.size());
  t.march.reserve(test.elements.size() * backgrounds.size());
  // One run per background on the same memory, no reset in between —
  // exactly the run_march_backgrounds sweep.
  for (const mem::Word standard : backgrounds) {
    append_run(t, test, background ? standard ^ mask : standard, mask);
  }
  return t;
}

template <typename W>
core::PackedVerdictT<W> run_march_packed(mem::PackedFaultRamT<W>& ram,
                                         const core::OpTranscript& t,
                                         const MarchRunOptions& options) {
  assert(t.n == ram.size());
  assert(t.width == ram.width());
  // Both paths' access steps are forced inline into the replay loop
  // (DESIGN.md §27), as the PRT replay's are.
  if (t.width == 1) {
    return replay(
        ram, t, options,
        [&](mem::Addr addr, gf::Elem golden) __attribute__((always_inline)) {
          return ram.read(addr) ^ mem::lane_broadcast<W>(golden);
        },
        [&](mem::Addr addr, gf::Elem golden) __attribute__((always_inline)) {
          ram.write(addr, mem::lane_broadcast<W>(golden));
        });
  }
  // Word path: a read deviates when any plane does, a write broadcasts
  // each plane of the golden word.
  const unsigned m = t.width;
  std::array<W, mem::PackedFaultRamT<W>::kMaxWidth> planes;
  return replay(
      ram, t, options,
      [&](mem::Addr addr, gf::Elem golden) __attribute__((always_inline)) {
        ram.read_word(addr, planes.data());
        W diff{};
        for (unsigned b = 0; b < m; ++b) {
          diff |= planes[b] ^ mem::lane_broadcast<W>((golden >> b) & 1U);
        }
        return diff;
      },
      [&](mem::Addr addr, gf::Elem golden) __attribute__((always_inline)) {
        for (unsigned b = 0; b < m; ++b) {
          planes[b] = mem::lane_broadcast<W>((golden >> b) & 1U);
        }
        ram.write_word(addr, planes.data());
      });
}

template core::PackedVerdictT<mem::LaneWord> run_march_packed(
    mem::PackedFaultRamT<mem::LaneWord>&, const core::OpTranscript&,
    const MarchRunOptions&);
template core::PackedVerdictT<mem::WideWord<8>> run_march_packed(
    mem::PackedFaultRamT<mem::WideWord<8>>&, const core::OpTranscript&,
    const MarchRunOptions&);

MarchResult run_march_backgrounds(const MarchTest& test, mem::Memory& memory,
                                  const std::vector<mem::Word>& backgrounds,
                                  const MarchRunOptions& options) {
  assert(!backgrounds.empty());
  MarchResult merged;
  for (mem::Word bg : backgrounds) {
    const MarchResult r =
        run_march(test, memory, bg, kDefaultDelayTicks, options);
    merged.ops += r.ops;
    merged.mismatches += r.mismatches;
    if (r.fail && !merged.fail) {
      merged.fail = true;
      merged.first_addr = r.first_addr;
      merged.first_expected = r.first_expected;
      merged.first_actual = r.first_actual;
    }
    // The abort-aware reference stops the whole background sweep at
    // the first failing run.
    if (options.early_abort && merged.fail) break;
  }
  return merged;
}

std::vector<mem::Word> standard_backgrounds(unsigned m) {
  if (m < 1 || m > 32) {
    throw std::invalid_argument(
        "standard_backgrounds: m must be in [1, 32] (got " +
        std::to_string(m) + ")");
  }
  std::vector<mem::Word> bgs{0};
  // Stripe widths 1, 2, 4, ... < m produce the checkerboard family.
  for (unsigned stripe = 1; stripe < m; stripe <<= 1) {
    mem::Word bg = 0;
    for (unsigned bit = 0; bit < m; ++bit) {
      if ((bit / stripe) & 1U) bg |= mem::Word{1} << bit;
    }
    bgs.push_back(bg);
  }
  return bgs;
}

}  // namespace prt::march
