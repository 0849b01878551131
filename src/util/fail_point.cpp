#include "util/fail_point.hpp"

#include <atomic>
#include <cstddef>
#include <thread>
#include <unordered_map>

#include "util/annotations.hpp"

namespace prt::util {

namespace {

struct Armed {
  FailPoint::Config config;
  std::uint64_t hits = 0;
};

struct Registry {
  Mutex mutex;
  std::unordered_map<std::string, Armed> points PRT_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Count of armed points — the disarmed fast path in hit() is one
/// relaxed load of this, so production runs never touch the registry
/// lock.
//
// Invariant (atomic fast path over mutex-guarded state, invisible to
// thread-safety analysis): armed_count() is only ever written while
// registry().mutex is held, and equals points.size() whenever that
// mutex is released.  hit() may read a stale zero and skip a point
// armed concurrently — benign, because arming happens-before the
// traffic a test injects into — but can never miss a point armed
// before the traffic started.
std::atomic<std::size_t>& armed_count() {
  static std::atomic<std::size_t> count{0};
  return count;
}

}  // namespace

void FailPoint::arm(const std::string& name, const Config& config) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  auto [it, inserted] = r.points.insert_or_assign(name, Armed{config, 0});
  (void)it;
  if (inserted) armed_count().fetch_add(1, std::memory_order_release);
}

void FailPoint::disarm(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  if (r.points.erase(name) != 0) {
    armed_count().fetch_sub(1, std::memory_order_release);
  }
}

void FailPoint::disarm_all() {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  armed_count().fetch_sub(r.points.size(), std::memory_order_release);
  r.points.clear();
}

std::uint64_t FailPoint::hits(const std::string& name) {
  Registry& r = registry();
  MutexLock lock(r.mutex);
  const auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.hits;
}

std::optional<FailPoint::Config> FailPoint::poll(const char* name) {
  if (armed_count().load(std::memory_order_acquire) == 0) return std::nullopt;
  Config config;
  bool fire = false;
  {
    Registry& r = registry();
    MutexLock lock(r.mutex);
    const auto it = r.points.find(name);
    if (it == r.points.end()) return std::nullopt;
    Armed& armed = it->second;
    const std::uint64_t hit_index = armed.hits++;
    const auto skip = static_cast<std::uint64_t>(armed.config.skip);
    fire = hit_index >= skip &&
           (armed.config.fires < 0 ||
            hit_index < skip + static_cast<std::uint64_t>(armed.config.fires));
    config = armed.config;
  }
  if (!fire) return std::nullopt;
  return config;
}

void FailPoint::hit(const char* name) {
  const std::optional<Config> fired = poll(name);
  if (!fired) return;
  switch (fired->action) {
    case Action::kThrow:
    case Action::kPartialWrite:  // plain sites cannot truncate; fail hard
      throw FailPointError(std::string("fail point '") + name + "' fired");
    case Action::kDelay:
      std::this_thread::sleep_for(fired->delay);
      break;
  }
}

}  // namespace prt::util
