// Deterministic infrastructure fault injection for tests.
//
// This codebase simulates faults in memories; FailPoint injects faults
// into the *infrastructure itself* — the oracle cache builds, the
// worker pool tasks, the campaign service's checkpoint writes — so the
// recovery paths around them (entry eviction, bounded shard retry,
// partial-result statuses, checkpoint resume) are exercised by
// deterministic tests instead of trusted.  The shape follows the MINIX
// faultinjector / ARCHIE controller idea referenced in ROADMAP.md:
// named injection points compiled into the production code, armed by
// name from a test with an exact skip/fire schedule.
//
// Instrumented code calls `FailPoint::hit("name")` at the site; the
// disarmed fast path is one relaxed atomic load (no lock, no lookup),
// so the hooks stay compiled in everywhere.  A test arms a point:
//
//   util::FailPoint::arm("oracle_cache.build", {.skip = 2});
//   // third hit of that site throws util::FailPointError
//
// Actions: kThrow (throw FailPointError at the site), kDelay (sleep —
// for widening cancellation and queueing races deterministically), and
// kPartialWrite (truncate a write at N bytes, then fail — for
// torn-checkpoint tests; only meaningful at sites that call poll() and
// implement the truncation).
// A config fires `fires` times after skipping `skip` hits (fires < 0 =
// every hit after the skips).  Arming is process-global and
// thread-safe; tests disarm in teardown (FailPointScope).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

namespace prt::util {

/// The exception a kThrow fail point raises — distinct from any real
/// error type so tests can assert the injected failure (and only it)
/// travelled the recovery path under test.
struct FailPointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class FailPoint {
 public:
  enum class Action { kThrow, kDelay, kPartialWrite };

  struct Config {
    Action action = Action::kThrow;
    /// Hits to let pass before the point starts firing.
    int skip = 0;
    /// Number of hits that fire once past `skip`; negative = unbounded.
    int fires = 1;
    /// Sleep length for kDelay.
    std::chrono::milliseconds delay{0};
    /// Truncation point (bytes kept) for kPartialWrite.
    std::size_t bytes = 0;
  };

  /// Arms (or re-arms, resetting the hit count of) the named point.
  static void arm(const std::string& name, const Config& config);

  static void disarm(const std::string& name);
  static void disarm_all();

  /// Total hits observed at the named point since it was armed.
  [[nodiscard]] static std::uint64_t hits(const std::string& name);

  /// The instrumentation call.  No-op (one relaxed atomic load) unless
  /// some point is armed; throws FailPointError when the named point's
  /// schedule says this hit fires a kThrow.  A kPartialWrite config at
  /// a plain hit() site degrades to kThrow — only poll() sites can
  /// honour the truncation.
  static void hit(const char* name);

  /// Rich-action variant of hit(): advances the named point's schedule
  /// exactly like hit() but returns the firing Config to the caller
  /// instead of acting on it (nullopt when disarmed or not scheduled
  /// to fire).  Sites with site-specific failure modes — the
  /// checkpoint writer's torn-write simulation — use this to implement
  /// actions hit() cannot, and remain responsible for throwing
  /// FailPointError themselves.
  [[nodiscard]] static std::optional<Config> poll(const char* name);
};

/// Test scaffolding: disarms every fail point on scope exit so one
/// failed test cannot leak armed points into the next.
struct FailPointScope {
  FailPointScope() = default;
  FailPointScope(const FailPointScope&) = delete;
  FailPointScope& operator=(const FailPointScope&) = delete;
  ~FailPointScope() { FailPoint::disarm_all(); }
};

}  // namespace prt::util
