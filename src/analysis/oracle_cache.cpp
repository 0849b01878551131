#include "analysis/oracle_cache.hpp"

#include <chrono>

#include "util/fail_point.hpp"

namespace prt::analysis {

namespace {

// Approximate resident cost of an entry for the LRU budget.  This is
// a *budgeting* estimate, not an allocator audit: it counts the heap
// vectors that dominate real entries (transcript op streams scale with
// n × iterations) and charges structs at sizeof.
// Consistency matters more than precision — the same entry always
// costs the same, so eviction order and budget math are deterministic.
std::size_t entry_bytes(const core::OpTranscript& t) {
  return sizeof(t) + t.recs.capacity() * sizeof(core::OpRec) +
         t.iterations.capacity() * sizeof(core::PrtIterSpan) +
         t.march.capacity() * sizeof(core::MarchSegment);
}

}  // namespace

template <typename Build>
OracleCache::Entry OracleCache::lookup(std::string key, Build&& build) {
  // A failed build must never poison the key: the builder evicts its
  // slot before publishing the exception, so the next requester
  // rebuilds from scratch.  A waiter that was already blocked on the
  // failed slot retries the lookup once itself (becoming the new
  // builder if nobody beat it there) instead of just relaying a
  // failure that may have been transient; a second failure propagates.
  for (int attempt = 0;; ++attempt) {
    std::promise<Entry> promise;
    std::shared_future<Entry> fut;
    {
      util::MutexLock lock(mutex_);
      auto [it, inserted] = slots_.try_emplace(key);
      if (!inserted) {
        ++hits_;
        fut = it->second.future;  // someone else built / is building
        if (it->second.in_lru) {
          lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        }
      } else {
        ++misses_;
        it->second.future = promise.get_future().share();
      }
    }
    if (fut.valid()) {
      try {
        return fut.get();  // blocks only while building
      } catch (...) {
        if (attempt > 0) throw;
        continue;
      }
    }
    // First requester: build outside the lock so distinct keys build
    // concurrently and lookups of cached keys never wait on a build.
    // Tests inject build failures here to pin the eviction protocol.
    try {
      util::FailPoint::hit("oracle_cache.build");
      Entry entry = std::make_shared<const core::OpTranscript>(build());
      ++builds_;
      promise.set_value(entry);
      {
        util::MutexLock lock(mutex_);
        // Re-find rather than reuse the iterator: a concurrent clear()
        // may have dropped our slot (or a successor build may occupy
        // the key).  Only account a slot that is ours — ready and not
        // yet in the LRU — so a successor's in-flight build is never
        // mis-tagged as complete.
        const auto it = slots_.find(key);
        if (it != slots_.end() && !it->second.in_lru &&
            it->second.future.wait_for(std::chrono::seconds(0)) ==
                std::future_status::ready) {
          it->second.bytes = entry_bytes(*entry);
          lru_.push_front(key);
          it->second.lru_it = lru_.begin();
          it->second.in_lru = true;
          total_bytes_ += it->second.bytes;
          evict_locked();
        }
      }
      return entry;
    } catch (...) {
      // Un-publish the failed slot so a later call can retry, and hand
      // the exception to this caller and to any concurrent waiter.
      {
        util::MutexLock lock(mutex_);
        slots_.erase(key);
      }
      promise.set_exception(std::current_exception());
      throw;
    }
  }
}

void OracleCache::evict_locked() {
  while (budget_bytes_ != 0 && total_bytes_ > budget_bytes_ &&
         !lru_.empty()) {
    const auto it = slots_.find(lru_.back());
    if (it != slots_.end()) {
      total_bytes_ -= it->second.bytes;
      slots_.erase(it);
    }
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const core::OpTranscript> OracleCache::prt(
    const core::PrtScheme& scheme, mem::Addr n) {
  return lookup("prt|" + core::scheme_fingerprint(scheme) +
                    "|n=" + std::to_string(n),
                [&] {
                  return core::make_op_transcript(
                      scheme, core::make_prt_oracle(scheme, n));
                });
}

std::shared_ptr<const core::OpTranscript> OracleCache::march(
    const march::MarchTest& test, mem::Addr n, bool background,
    std::uint64_t delay_ticks, unsigned m) {
  return lookup("march|" + march::test_fingerprint(test) +
                    "|n=" + std::to_string(n) +
                    "|bg=" + (background ? "1" : "0") +
                    "|del=" + std::to_string(delay_ticks) +
                    "|m=" + std::to_string(m),
                [&] {
                  return march::make_march_transcript(test, n, background,
                                                      delay_ticks, m);
                });
}

std::size_t OracleCache::size() const {
  util::MutexLock lock(mutex_);
  return slots_.size();
}

OracleCache::Stats OracleCache::stats() const {
  util::MutexLock lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = slots_.size();
  s.bytes = total_bytes_;
  return s;
}

void OracleCache::set_budget_bytes(std::size_t budget) {
  util::MutexLock lock(mutex_);
  budget_bytes_ = budget;
  evict_locked();
}

void OracleCache::clear() {
  util::MutexLock lock(mutex_);
  slots_.clear();
  lru_.clear();
  total_bytes_ = 0;
}

OracleCache& OracleCache::global() {
  static OracleCache cache;
  return cache;
}

}  // namespace prt::analysis
