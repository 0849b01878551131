// Capability-annotated synchronization primitives.
//
// Clang Thread Safety Analysis (-Wthread-safety) proves lock
// discipline at compile time: every field annotated GUARDED_BY(mu) is
// only touched with `mu` held, every function annotated REQUIRES(mu)
// is only called with `mu` held, and a forgotten unlock is a compile
// error.  The analysis only sees mutexes whose operations carry the
// capability attributes, so this header wraps std::mutex /
// std::condition_variable in annotated `util::Mutex` / `util::CondVar`
// and the whole concurrency stack (thread_pool, fail_point,
// oracle_cache, campaign_service) declares its locks through them.
// The project lint (scripts/run_lint.py) flags raw std::mutex /
// std::condition_variable declarations anywhere else in src/, so new
// concurrent code lands annotated by construction.
//
// The attributes compile away to nothing on compilers without
// thread-safety analysis (gcc): the wrappers are zero-cost veneers and
// the annotated tree builds identically everywhere.  CI's lint lane
// builds with clang `-Wthread-safety -Werror`, which is where the
// proofs actually run.  See DESIGN.md §12.
//
// Three deliberate analysis gaps, shared by every TSA deployment:
//  * condition-variable waits release and reacquire the mutex inside
//    wait(); the analysis treats the lock as continuously held, which
//    is exactly the invariant the *caller* relies on (the predicate
//    and the post-wait code run under the lock).  Wait predicates must
//    be written as explicit `while (!pred) cv.wait(lock)` loops — a
//    lambda predicate is analyzed as a separate unannotated function
//    and would warn on every guarded-field access.
//  * atomics intentionally bypass the analysis (they are their own
//    synchronization); fields that pair an atomic fast path with a
//    mutex-guarded slow path document the protocol with an invariant
//    comment instead (see fail_point.cpp's armed-count).
//  * data published before threads exist (constructor state,
//    setup-then-fan-out fields) is safe via happens-before rather than
//    mutual exclusion; such fields carry an invariant comment naming
//    the publication point (see campaign_service.cpp ServiceRequest).
#pragma once

#include <condition_variable>
#include <mutex>

// --- attribute macros -----------------------------------------------
// Names follow the canonical mutex.h from the Clang Thread Safety
// Analysis documentation, prefixed PRT_ to stay out of other
// libraries' way.

#if defined(__clang__) && (!defined(SWIG))
#define PRT_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PRT_THREAD_ANNOTATION(x)  // no-op: analysis is clang-only
#endif

#define PRT_CAPABILITY(x) PRT_THREAD_ANNOTATION(capability(x))
#define PRT_SCOPED_CAPABILITY PRT_THREAD_ANNOTATION(scoped_lockable)
#define PRT_GUARDED_BY(x) PRT_THREAD_ANNOTATION(guarded_by(x))
#define PRT_PT_GUARDED_BY(x) PRT_THREAD_ANNOTATION(pt_guarded_by(x))
#define PRT_ACQUIRE(...) \
  PRT_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PRT_RELEASE(...) \
  PRT_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PRT_TRY_ACQUIRE(...) \
  PRT_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define PRT_REQUIRES(...) \
  PRT_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PRT_EXCLUDES(...) PRT_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PRT_RETURN_CAPABILITY(x) PRT_THREAD_ANNOTATION(lock_returned(x))
#define PRT_NO_THREAD_SAFETY_ANALYSIS \
  PRT_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace prt::util {

/// Annotated std::mutex.  Declare shared state as
/// `T field PRT_GUARDED_BY(mutex_);` and take the lock with MutexLock;
/// clang then rejects any unlocked access to `field` at compile time.
class PRT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PRT_ACQUIRE() { m_.lock(); }
  void unlock() PRT_RELEASE() { m_.unlock(); }
  [[nodiscard]] bool try_lock() PRT_TRY_ACQUIRE(true) {
    return m_.try_lock();
  }

  /// The wrapped mutex, for interop with std condition variables.
  /// Locking through it bypasses the analysis — only MutexLock and
  /// CondVar may touch it.
  [[nodiscard]] std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// RAII lock over a util::Mutex — the std::unique_lock of the
/// annotated world.  Scoped-capability: clang knows the capability is
/// held from construction to destruction (or until an explicit
/// Unlock()) and releases it on every exit path.
class PRT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) PRT_ACQUIRE(mutex)
      : mutex_(mutex), lock_(mutex.native()) {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() PRT_RELEASE() = default;

  /// Manual unlock before scope exit (e.g. to run a slow call outside
  /// the critical section).  The destructor handles the unlocked case.
  void Unlock() PRT_RELEASE() { lock_.unlock(); }

 private:
  friend class CondVar;
  Mutex& mutex_;
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with util::Mutex.  wait() requires the
/// lock (enforced via the MutexLock it takes); write predicates as
/// explicit while-loops at the call site so guarded-field reads stay
/// inside the analyzed, lock-holding function:
///
///   MutexLock lock(mutex_);
///   while (!done_) cv_.wait(lock);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases the lock, blocks, reacquires before
  /// returning.  From the caller's (and the analysis') point of view
  /// the capability is held across the call — which is the contract
  /// the surrounding while-loop relies on.
  void wait(MutexLock& lock) PRT_REQUIRES(lock.mutex_) {
    cv_.wait(lock.lock_);
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace prt::util
