// Thread-safe, build-once memoization of golden-run artifacts, with a
// budgeted LRU so a long-lived service cannot grow without bound.
//
// Everything a campaign derives from the workload alone — the
// PrtOracle and the compiled core::OpTranscript (PRT and March
// flavours) — depends only on (scheme, n) or on
// (march test, n, background, delay) and is immutable once built.
// Before this cache each CampaignEngine / MarchCampaign built its own
// copy in its constructor, so a multi-size sweep, a port sweep at one
// size, or simply two engines over the same scheme recompiled the same
// golden run from scratch.  OracleCache hoists that memoization out of
// the engines:
//
//  * keys are structural fingerprints (core::scheme_fingerprint,
//    march::test_fingerprint) plus the run geometry, so renamed but
//    structurally identical workloads share entries and distinct
//    structures never alias;
//  * the first requester of a key builds the entry *outside* the cache
//    lock while concurrent requesters of the same key block on a
//    shared future — exactly one build per key, even under concurrent
//    engine construction (pinned by tests/test_campaign_suite.cpp);
//    concurrent requesters of different keys build in parallel;
//  * entries are handed out as shared_ptr<const ...>: engines keep
//    their artifacts alive independently of the cache (clear() and
//    eviction cannot invalidate a running campaign);
//  * an optional byte budget (set_budget_bytes) bounds the resident
//    footprint: completed entries join an LRU list with an
//    approximate byte cost, and finishing a build evicts
//    least-recently-used entries until the total fits.  Over-budget
//    behaviour degrades to rebuild-on-miss — never to a failure.
//
// Engines and the suite share the process-wide instance (global());
// tests and benches that need cold-start timings construct their own
// or clear() the global one.  The campaign service surfaces the
// hit/miss/eviction counters through CampaignService::stats().  See
// DESIGN.md §10 and §13.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/op_transcript.hpp"
#include "core/prt_engine.hpp"
#include "march/march_runner.hpp"
#include "util/annotations.hpp"

namespace prt::analysis {

class OracleCache {
 public:
  /// Everything derivable from (scheme, n): the memoized oracle and
  /// the compiled replay transcript.  Immutable after construction.
  struct PrtEntry {
    core::PrtOracle oracle;
    core::OpTranscript transcript;
  };

  /// Everything derivable from (test, n, background, delay_ticks): the
  /// compiled March transcript.  Immutable after construction.
  struct MarchEntry {
    core::OpTranscript transcript;
  };

  /// Point-in-time counters (monotonic except entries/bytes, which are
  /// the current residency).  A lookup that finds an entry — built or
  /// still building — is a hit; one that starts a build is a miss.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;
  };

  OracleCache() = default;
  OracleCache(const OracleCache&) = delete;
  OracleCache& operator=(const OracleCache&) = delete;

  /// Returns the entry for (scheme, n), building it exactly once per
  /// key.  Blocks only when another thread is already building the
  /// same key.  Precondition: the scheme passes validate_prt_scheme
  /// for this n (campaigns check it before the lookup).
  [[nodiscard]] std::shared_ptr<const PrtEntry> prt(
      const core::PrtScheme& scheme, mem::Addr n);

  /// Returns the entry for (test, n, background, delay_ticks),
  /// building it exactly once per key.
  [[nodiscard]] std::shared_ptr<const MarchEntry> march(
      const march::MarchTest& test, mem::Addr n, bool background,
      std::uint64_t delay_ticks = march::kDefaultDelayTicks);

  /// Number of entries actually built (not lookups) — the
  /// one-build-per-key test hook.
  [[nodiscard]] std::size_t prt_builds() const { return prt_builds_; }
  [[nodiscard]] std::size_t march_builds() const { return march_builds_; }

  /// Cached entry count (both kinds).
  [[nodiscard]] std::size_t size() const;

  /// Hit/miss/eviction counters plus current residency.
  [[nodiscard]] Stats stats() const;

  /// Sets the approximate resident-byte budget; 0 (the default) means
  /// unbounded.  Applies immediately: a shrink evicts down to the new
  /// budget before returning.  The budget bounds *cached* footprint
  /// only — entries handed out stay alive through their shared_ptrs.
  void set_budget_bytes(std::size_t budget);
  [[nodiscard]] std::size_t budget_bytes() const;

  /// Drops every cached entry (outstanding shared_ptrs stay valid).
  /// Benches use this to measure cold-start construction costs.
  void clear();

  /// The process-wide instance every engine and suite shares.
  [[nodiscard]] static OracleCache& global();

 private:
  /// LRU identity of a completed entry: which map ('p'/'m') + its key.
  using LruKey = std::pair<char, std::string>;

  template <typename Entry>
  struct Slot {
    std::shared_future<std::shared_ptr<const Entry>> future;
    /// Approximate footprint; 0 until the build completes.
    std::size_t bytes = 0;
    /// Position in lru_ (most-recent at front); only while in_lru.
    std::list<LruKey>::iterator lru_it{};
    bool in_lru = false;
  };
  template <typename Entry>
  using SlotMap = std::unordered_map<std::string, Slot<Entry>>;

  /// find-or-start-building: the common lock protocol of prt()/march().
  /// Takes the map as a pointer-to-member (not a reference) so the
  /// guarded field is only ever dereferenced under mutex_ inside —
  /// passing `prt_` by reference unlocked would itself be a
  /// -Wthread-safety-reference violation.  `kind` is the LRU tag for
  /// the map ('p' for prt_, 'm' for march_).
  template <typename Entry, typename Build>
  std::shared_ptr<const Entry> lookup(SlotMap<Entry> OracleCache::*map,
                                      char kind, std::string key,
                                      std::atomic<std::size_t>& builds,
                                      Build&& build) PRT_EXCLUDES(mutex_);

  /// Evicts LRU-tail entries until total_bytes_ fits budget_bytes_
  /// (no-op when the budget is 0).  Only completed entries are in the
  /// LRU, so in-flight builds are never evicted from under waiters.
  void evict_locked() PRT_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  SlotMap<PrtEntry> prt_ PRT_GUARDED_BY(mutex_);
  SlotMap<MarchEntry> march_ PRT_GUARDED_BY(mutex_);
  std::list<LruKey> lru_ PRT_GUARDED_BY(mutex_);
  std::size_t total_bytes_ PRT_GUARDED_BY(mutex_) = 0;
  std::size_t budget_bytes_ PRT_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ PRT_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ PRT_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ PRT_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> prt_builds_{0};
  std::atomic<std::size_t> march_builds_{0};
};

}  // namespace prt::analysis
