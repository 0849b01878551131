// Cooperative cancellation with deadlines for long-running campaigns.
//
// A StopSource owns the stop state; the StopTokens it hands out are
// cheap shared views polled from worker loops.  Three stop causes
// exist and are distinguished so callers can report *why* a run ended
// early: an explicit request_stop() (user cancellation, or an executor
// winding a failed job down), a wall-clock deadline
// (set_deadline_after), and — via parent linking — any cause inherited
// from an upstream source.  A stop is sticky: once observed the reason
// latches, and every later poll is a single atomic load.
//
// Parent linking: StopSource(parent_token) creates a *child* source
// whose tokens also trip when the parent does, with the parent's
// reason.  A campaign job's stop source is a child of its caller's
// token, so the job can stop itself on a failure while a caller's
// cancel or deadline still reaches every batch loop through it.
// Chains are expected to be one link deep; the poll recurses up them.
//
// A default-constructed StopToken has no state and never stops — the
// shape every pre-existing call site uses, so threading tokens through
// the campaign shard loops costs non-cancellable runs one null check
// per fault.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>

namespace prt::util {

enum class StopReason : std::uint8_t {
  kNone = 0,
  kCancelled = 1,
  kDeadline = 2,
};

namespace detail {
// Invariant (lock-free latch, invisible to thread-safety analysis —
// see util/annotations.hpp): `reason` transitions 0 -> nonzero exactly
// once, via compare_exchange with expected = 0, and is never written
// again; every writer (request_stop, the deadline poll and the parent
// propagation in stop_requested) races through that one CAS, so
// concurrent cancel, deadline expiry and parent stops latch a single
// winner and all observers agree on it forever after (pinned by
// StopToken.ConcurrentObserversAgreeOnOneReason).  `deadline` is
// monotonic-clock plumbing only: readers re-check `reason` before
// trusting it, so a racy deadline store can at worst delay — never
// un-latch — a stop.  `parent` is set once at construction and never
// reassigned, so following it is data-race-free.
struct StopState {
  std::atomic<std::uint8_t> reason{0};
  /// steady_clock time_since_epoch in its native rep; 0 = no deadline.
  std::atomic<std::int64_t> deadline{0};
  /// Upstream state this one inherits stops from; null for roots.
  std::shared_ptr<StopState> parent;
};
}  // namespace detail

class StopToken {
 public:
  /// Stateless token: stop_requested() is always false.
  StopToken() = default;

  /// True once the source requested a stop, the deadline passed, or a
  /// linked parent stopped.  Latches: the first deadline or parent
  /// observation stores the reason locally so subsequent polls are one
  /// atomic load.
  [[nodiscard]] bool stop_requested() const {
    return state_ != nullptr && state_stopped(*state_);
  }

  /// Why the stop happened; kNone while still running.  Polls the
  /// deadline and parent chain like stop_requested() so the reported
  /// reason cannot lag an expired deadline or a stopped parent.
  [[nodiscard]] StopReason reason() const {
    if (!state_ || !state_stopped(*state_)) return StopReason::kNone;
    return static_cast<StopReason>(
        state_->reason.load(std::memory_order_acquire));
  }

 private:
  friend class StopSource;
  explicit StopToken(std::shared_ptr<detail::StopState> state)
      : state_(std::move(state)) {}

  static bool state_stopped(detail::StopState& state) {
    if (state.reason.load(std::memory_order_acquire) != 0) return true;
    const std::int64_t deadline =
        state.deadline.load(std::memory_order_relaxed);
    if (deadline != 0 &&
        std::chrono::steady_clock::now().time_since_epoch().count() >=
            deadline) {
      std::uint8_t expected = 0;
      state.reason.compare_exchange_strong(
          expected, static_cast<std::uint8_t>(StopReason::kDeadline),
          std::memory_order_acq_rel);
      return true;
    }
    if (state.parent != nullptr && state_stopped(*state.parent)) {
      // Latch the parent's reason locally so observers of this state
      // agree with observers of the parent (first local cause wins if
      // a direct stop raced in between the two loads).
      std::uint8_t expected = 0;
      state.reason.compare_exchange_strong(
          expected, state.parent->reason.load(std::memory_order_acquire),
          std::memory_order_acq_rel);
      return true;
    }
    return false;
  }

  std::shared_ptr<detail::StopState> state_;
};

class StopSource {
 public:
  StopSource() : state_(std::make_shared<detail::StopState>()) {}

  /// Child source: tokens stop when either this source is stopped
  /// directly or `parent` stops (inheriting the parent's reason).
  /// A stateless parent token yields an ordinary root source.
  explicit StopSource(const StopToken& parent)
      : state_(std::make_shared<detail::StopState>()) {
    state_->parent = parent.state_;
  }

  /// Requests a stop (cause kCancelled).  First cause wins: a cancel
  /// after the deadline already latched keeps reporting kDeadline (and
  /// vice versa).
  void request_stop() const {
    std::uint8_t expected = 0;
    state_->reason.compare_exchange_strong(
        expected, static_cast<std::uint8_t>(StopReason::kCancelled),
        std::memory_order_acq_rel);
  }

  /// Arms a wall-clock deadline `after` from now; tokens trip it
  /// lazily on their next poll.  The sum saturates: a deadline past
  /// the clock's range (nanoseconds::max(), say) never trips, and a
  /// negative one has already passed.
  void set_deadline_after(std::chrono::nanoseconds after) const {
    using Clock = std::chrono::steady_clock;
    // steady_clock counts up from its epoch, so max() - now cannot wrap.
    const Clock::duration now = Clock::now().time_since_epoch();
    const Clock::duration budget =
        std::max(std::chrono::duration_cast<Clock::duration>(after),
                 Clock::duration::zero());
    std::int64_t rep = budget >= Clock::duration::max() - now
                           ? std::numeric_limits<std::int64_t>::max()
                           : (now + budget).count();
    if (rep == 0) rep = 1;  // 0 means "no deadline"
    state_->deadline.store(rep, std::memory_order_relaxed);
  }

  [[nodiscard]] StopToken token() const { return StopToken(state_); }
  [[nodiscard]] bool stop_requested() const {
    return token().stop_requested();
  }

 private:
  std::shared_ptr<detail::StopState> state_;
};

}  // namespace prt::util
