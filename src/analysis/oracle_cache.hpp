// Thread-safe, build-once memoization of golden-run transcripts, with
// a budgeted LRU so a long-lived service cannot grow without bound.
//
// Everything a campaign derives from the workload alone is one
// compiled core::OpTranscript — a PRT scheme's at (scheme, n), a March
// test's whole background sweep at (test, n, background, delay, m) —
// immutable once built.  A PRT transcript is compiled from a PrtOracle
// built for the purpose and then dropped: the replays read only the
// transcript.  Keeping the memoization out of the engines means a
// multi-size sweep, or two engines over the same scheme, compile each
// golden run once:
//
//  * one map holds both kinds, keyed by a kind prefix ("prt|",
//    "march|"), a structural fingerprint (core::scheme_fingerprint,
//    march::test_fingerprint) and the run geometry, so renamed but
//    structurally identical workloads share entries and distinct
//    structures — of either kind — never alias;
//  * the first requester of a key builds the entry *outside* the cache
//    lock while concurrent requesters of the same key block on a
//    shared future — exactly one build per key, even under concurrent
//    engine construction (pinned by tests/test_campaign_suite.cpp);
//    concurrent requesters of different keys build in parallel;
//  * entries are handed out as shared_ptr<const OpTranscript>: engines
//    keep their transcripts alive independently of the cache (clear()
//    and eviction cannot invalidate a running campaign);
//  * an optional byte budget (set_budget_bytes) bounds the resident
//    footprint: completed entries of both kinds join one LRU list
//    with an approximate byte cost, and finishing a build evicts
//    least-recently-used entries until the total fits.  Over-budget
//    behaviour degrades to rebuild-on-miss — never to a failure.
//
// Engines and the suite share the process-wide instance (global());
// tests and benches that need cold-start timings construct their own
// or clear() the global one.  The campaign service surfaces the
// hit/miss/eviction counters through CampaignService::stats().  See
// DESIGN.md §10, §13 and §22.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "core/op_transcript.hpp"
#include "core/prt_engine.hpp"
#include "march/march_runner.hpp"
#include "util/annotations.hpp"

namespace prt::analysis {

class OracleCache {
 public:
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

  /// Returns the compiled replay transcript for (scheme, n), building
  /// it exactly once per key.  Blocks only when another thread is
  /// already building the same key.  Precondition: the scheme passes
  /// core::validate_prt_scheme for this n (campaigns check it before
  /// the lookup).
  [[nodiscard]] std::shared_ptr<const core::OpTranscript> prt(
      const core::PrtScheme& scheme, mem::Addr n);

  /// Returns the transcript of the whole background sweep on an m-bit
  /// memory for (test, n, background, delay_ticks, m), building it
  /// exactly once per key (march::make_march_transcript).
  [[nodiscard]] std::shared_ptr<const core::OpTranscript> march(
      const march::MarchTest& test, mem::Addr n, bool background,
      std::uint64_t delay_ticks = march::kDefaultDelayTicks, unsigned m = 1);

  /// Number of entries actually built (not lookups), both kinds — the
  /// one-build-per-key test hook.
  [[nodiscard]] std::size_t builds() const { return builds_; }

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
  using Entry = std::shared_ptr<const core::OpTranscript>;

  struct Slot {
    std::shared_future<Entry> future;
    /// Approximate footprint; 0 until the build completes.
    std::size_t bytes = 0;
    /// Position in lru_ (most-recent at front); only while in_lru.
    std::list<std::string>::iterator lru_it{};
    bool in_lru = false;
  };

  /// find-or-start-building: the lock protocol of prt()/march().
  template <typename Build>
  Entry lookup(std::string key, Build&& build) PRT_EXCLUDES(mutex_);

  /// Evicts LRU-tail entries until total_bytes_ fits budget_bytes_
  /// (no-op when the budget is 0).  Only completed entries are in the
  /// LRU, so in-flight builds are never evicted from under waiters.
  void evict_locked() PRT_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::unordered_map<std::string, Slot> slots_ PRT_GUARDED_BY(mutex_);
  std::list<std::string> lru_ PRT_GUARDED_BY(mutex_);
  std::size_t total_bytes_ PRT_GUARDED_BY(mutex_) = 0;
  std::size_t budget_bytes_ PRT_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ PRT_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ PRT_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ PRT_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> builds_{0};
};

}  // namespace prt::analysis
