// Tests for utility components (util/*).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/bitops.hpp"
#include "util/crc32.hpp"
#include "util/fail_point.hpp"
#include "util/rng.hpp"
#include "util/stop_token.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace prt {
namespace {

// --- bitops ---------------------------------------------------------------

TEST(Bitops, Parity) {
  EXPECT_EQ(parity64(0), 0u);
  EXPECT_EQ(parity64(1), 1u);
  EXPECT_EQ(parity64(0b11), 0u);
  EXPECT_EQ(parity64(~0ULL), 0u);
  EXPECT_EQ(parity64(0x8000000000000001ULL), 0u);
  EXPECT_EQ(parity64(0x8000000000000000ULL), 1u);
}

TEST(Bitops, BitOfAndWithBit) {
  EXPECT_EQ(bit_of(0b1010, 1), 1u);
  EXPECT_EQ(bit_of(0b1010, 0), 0u);
  EXPECT_EQ(with_bit(0, 3, 1), 0b1000u);
  EXPECT_EQ(with_bit(0b1111, 2, 0), 0b1011u);
}

TEST(Bitops, LowMask) {
  EXPECT_EQ(low_mask(0), 0u);
  EXPECT_EQ(low_mask(1), 1u);
  EXPECT_EQ(low_mask(4), 0xFu);
  EXPECT_EQ(low_mask(64), ~0ULL);
}

TEST(Bitops, PolyDegree) {
  EXPECT_EQ(poly_degree(0), -1);
  EXPECT_EQ(poly_degree(1), 0);
  EXPECT_EQ(poly_degree(0b10011), 4);
  EXPECT_EQ(poly_degree(1ULL << 63), 63);
}

TEST(Bitops, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(1024), 10u);
  EXPECT_EQ(ceil_log2(1025), 11u);
}

TEST(Bitops, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

// --- rng --------------------------------------------------------------------

TEST(Rng, DeterministicPerSeed) {
  Xoshiro256 a(42);
  Xoshiro256 b(42);
  Xoshiro256 c(43);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a(), b());
  }
  bool differs = false;
  Xoshiro256 a2(42);
  for (int i = 0; i < 10; ++i) differs |= a2() != c();
  EXPECT_TRUE(differs);
}

TEST(Rng, BelowStaysInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RoughUniformity) {
  Xoshiro256 rng(11);
  std::array<int, 4> bucket{};
  const int draws = 40000;
  for (int i = 0; i < draws; ++i) ++bucket[rng.below(4)];
  for (int b : bucket) {
    EXPECT_NEAR(b, draws / 4, draws / 40);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  Xoshiro256 rng(3);
  shuffle(v.begin(), v.end(), rng);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 8u);
}

// --- table ---------------------------------------------------------------

TEST(TableTest, RendersHeaderSeparatorRows) {
  Table t({"name", "value"});
  t.add("alpha", 1);
  t.add("beta", 2.5);
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("2.500"), std::string::npos);
  EXPECT_NE(s.find("|--"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(TableTest, AlignmentPadsCorrectly) {
  Table t({"h"});
  t.set_align(0, Align::kLeft);
  t.add_row({"x"});
  t.add_row({"xxxx"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| x    |"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add(1, 2);
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TableTest, BoolCells) {
  Table t({"flag"});
  t.add(true);
  t.add(false);
  const std::string s = t.str();
  EXPECT_NE(s.find("yes"), std::string::npos);
  EXPECT_NE(s.find("no"), std::string::npos);
}

TEST(TableTest, ScientificForExtremes) {
  EXPECT_NE(Table::to_cell(1e-9).find("e"), std::string::npos);
  EXPECT_NE(Table::to_cell(3.5e12).find("e"), std::string::npos);
  EXPECT_EQ(Table::to_cell(0.0), "0.000");
}

TEST(Formatting, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(100.0, 0), "100");
}

TEST(Formatting, FormatPow2Ratio) {
  EXPECT_EQ(format_pow2_ratio(0.25), "2^-2.0");
  EXPECT_EQ(format_pow2_ratio(1.0), "2^0.0");
  EXPECT_EQ(format_pow2_ratio(0.0), "0");
}

// --- fail points ----------------------------------------------------------

TEST(FailPoint, DisarmedHitIsANoOp) {
  util::FailPoint::hit("nothing.armed");  // must not throw
  EXPECT_EQ(util::FailPoint::hits("nothing.armed"), 0u);
}

TEST(FailPoint, SkipAndFiresSchedule) {
  util::FailPointScope scope;
  util::FailPoint::arm("test.point", {.skip = 2, .fires = 1});
  util::FailPoint::hit("test.point");  // hit 0: skipped
  util::FailPoint::hit("test.point");  // hit 1: skipped
  EXPECT_THROW(util::FailPoint::hit("test.point"), util::FailPointError);
  util::FailPoint::hit("test.point");  // hit 3: past the fire window
  EXPECT_EQ(util::FailPoint::hits("test.point"), 4u);
}

TEST(FailPoint, UnboundedFiresAndDisarm) {
  util::FailPointScope scope;
  util::FailPoint::arm("test.unbounded", {.fires = -1});
  EXPECT_THROW(util::FailPoint::hit("test.unbounded"), util::FailPointError);
  EXPECT_THROW(util::FailPoint::hit("test.unbounded"), util::FailPointError);
  util::FailPoint::disarm("test.unbounded");
  util::FailPoint::hit("test.unbounded");  // disarmed: no-op
}

TEST(FailPoint, DelayActionSleeps) {
  util::FailPointScope scope;
  util::FailPoint::arm("test.delay",
                       {.action = util::FailPoint::Action::kDelay,
                        .fires = 1,
                        .delay = std::chrono::milliseconds(10)});
  const auto start = std::chrono::steady_clock::now();
  util::FailPoint::hit("test.delay");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(9));
}

TEST(FailPoint, PollSharesScheduleWithHit) {
  util::FailPointScope scope;
  util::FailPoint::arm("test.poll", {.skip = 1, .fires = 1});
  EXPECT_FALSE(util::FailPoint::poll("test.never.armed").has_value());
  util::FailPoint::hit("test.poll");  // hit 0: skipped
  const std::optional<util::FailPoint::Config> fired =
      util::FailPoint::poll("test.poll");  // hit 1: fires
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->action, util::FailPoint::Action::kThrow);
  util::FailPoint::hit("test.poll");  // hit 2: past the window
}

TEST(FailPoint, PartialWriteAtPlainHitDegradesToThrow) {
  // A site without a byte stream cannot honor kPartialWrite; failing
  // hard beats silently ignoring the injection.
  util::FailPointScope scope;
  util::FailPoint::arm("test.pw",
                       {.action = util::FailPoint::Action::kPartialWrite,
                        .fires = 1,
                        .bytes = 10});
  EXPECT_THROW(util::FailPoint::hit("test.pw"), util::FailPointError);
}

// --- crc32 ----------------------------------------------------------------

TEST(Crc32, MatchesKnownVectorsAndDetectsFlips) {
  EXPECT_EQ(util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(util::crc32(""), 0x00000000u);
  const std::string payload = "shard 3 ops 120 overall 9 10";
  std::string flipped = payload;
  flipped[10] ^= 0x01;
  EXPECT_NE(util::crc32(payload), util::crc32(flipped));
}

// --- stop tokens ----------------------------------------------------------

TEST(StopToken, DefaultTokenNeverStops) {
  const util::StopToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.reason(), util::StopReason::kNone);
}

TEST(StopToken, RequestStopLatchesCancelled) {
  util::StopSource source;
  const util::StopToken token = source.token();
  EXPECT_FALSE(token.stop_requested());
  source.request_stop();
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), util::StopReason::kCancelled);
}

TEST(StopToken, DeadlineTripsAndLatches) {
  util::StopSource source;
  source.set_deadline_after(std::chrono::milliseconds(5));
  const util::StopToken token = source.token();
  EXPECT_FALSE(token.stop_requested());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.reason(), util::StopReason::kDeadline);
  // First cause wins: a later cancel does not overwrite the reason.
  source.request_stop();
  EXPECT_EQ(token.reason(), util::StopReason::kDeadline);
}

TEST(StopToken, CancelBeforeDeadlineReportsCancelled) {
  util::StopSource source;
  source.set_deadline_after(std::chrono::hours(1));
  source.request_stop();
  EXPECT_TRUE(source.stop_requested());
  EXPECT_EQ(source.token().reason(), util::StopReason::kCancelled);
}

// The deadline sum saturates at the clock's range: one past it never
// trips, and a negative one has already passed.  The unchecked sums
// now + nanoseconds::max() and now + nanoseconds::min() would overflow
// (undefined behaviour, which the UBSan build traps), the first into a
// deadline long past.
TEST(StopToken, DeadlineSumSaturatesAtTheClocksRange) {
  util::StopSource never;
  never.set_deadline_after(std::chrono::nanoseconds::max());
  EXPECT_FALSE(never.stop_requested());
  EXPECT_EQ(never.token().reason(), util::StopReason::kNone);
  never.request_stop();
  EXPECT_EQ(never.token().reason(), util::StopReason::kCancelled);

  util::StopSource passed;
  passed.set_deadline_after(std::chrono::nanoseconds::min());
  EXPECT_TRUE(passed.stop_requested());
  EXPECT_EQ(passed.token().reason(), util::StopReason::kDeadline);
}

TEST(StopToken, CancelThenPassedDeadlineKeepsCancelled) {
  util::StopSource source;
  source.request_stop();
  EXPECT_TRUE(source.stop_requested());
  EXPECT_EQ(source.token().reason(), util::StopReason::kCancelled);
  // First cause wins: a deadline that has already passed does not
  // overwrite the cancel.
  source.set_deadline_after(std::chrono::nanoseconds::min());
  EXPECT_EQ(source.token().reason(), util::StopReason::kCancelled);
}

TEST(StopToken, ChildObservesParentStop) {
  util::StopSource parent;
  util::StopSource child(parent.token());
  EXPECT_FALSE(child.token().stop_requested());
  parent.request_stop();
  EXPECT_TRUE(child.token().stop_requested());
  EXPECT_EQ(child.token().reason(), util::StopReason::kCancelled);
  // The parent's reason latches into the child: a later local cause
  // (a deadline that has already passed) does not overwrite it.
  child.set_deadline_after(std::chrono::nanoseconds::min());
  EXPECT_EQ(child.token().reason(), util::StopReason::kCancelled);
}

TEST(StopToken, ChildStopDoesNotPropagateToParent) {
  util::StopSource parent;
  util::StopSource child(parent.token());
  child.request_stop();
  EXPECT_TRUE(child.token().stop_requested());
  EXPECT_EQ(child.token().reason(), util::StopReason::kCancelled);
  EXPECT_FALSE(parent.token().stop_requested());
  EXPECT_EQ(parent.token().reason(), util::StopReason::kNone);
}

TEST(StopToken, ParentDeadlinePropagatesToChild) {
  util::StopSource parent;
  parent.set_deadline_after(std::chrono::milliseconds(5));
  util::StopSource child(parent.token());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(child.token().stop_requested());
  EXPECT_EQ(child.token().reason(), util::StopReason::kDeadline);
}

// --- thread pool exception safety -----------------------------------------

TEST(ThreadPool, ThrowingTaskReachesItsFailureCallback) {
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  util::Latch latch(8);
  for (int i = 0; i < 8; ++i) {
    pool.submit(
        [&, i] {
          if (i == 3) throw std::runtime_error("task crashed");
          ++ran;
          latch.count_down();
        },
        [&latch](std::exception_ptr error) {
          latch.count_down(std::move(error));
        });
  }
  EXPECT_THROW(latch.wait_and_rethrow(), std::runtime_error);
  EXPECT_EQ(ran.load(), 7);
}

TEST(ThreadPool, ShutdownWithThrowingTasksMidQueueIsClean) {
  // Destroying the pool with a queue of tasks, some of which throw,
  // must neither std::terminate (exception escaping a worker) nor
  // deadlock the destructor; every task still reaches its completion
  // path.
  std::atomic<int> ran{0};
  std::atomic<int> failed{0};
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.submit(
          [&ran, i] {
            if (i % 5 == 0) throw std::runtime_error("mid-queue crash");
            ++ran;
          },
          [&failed](std::exception_ptr) { ++failed; });
    }
    // No wait: the destructor drains the queue itself.
  }
  EXPECT_EQ(ran.load(), 25);
  EXPECT_EQ(failed.load(), 7);
}

TEST(ThreadPool, FailPointLostTaskReachesItsFailureCallback) {
  util::FailPointScope scope;
  util::FailPoint::arm("thread_pool.task", {.skip = 1, .fires = 1});
  util::ThreadPool pool(1);
  std::atomic<int> ran{0};
  util::Latch latch(4);
  for (int i = 0; i < 4; ++i) {
    pool.submit(
        [&] {
          ++ran;
          latch.count_down();
        },
        [&latch](std::exception_ptr error) {
          latch.count_down(std::move(error));
        });
  }
  // Exactly the second task was replaced by the injected crash.
  EXPECT_THROW(latch.wait_and_rethrow(), util::FailPointError);
  EXPECT_EQ(ran.load(), 3);
}

// The next test pins an invariant that lives in atomics the
// thread-safety annotations cannot express — the "patterns the
// analysis can't see" audit (DESIGN.md §12): it has a `//` invariant
// comment at the declaration site and a regression test here.

TEST(StopToken, ConcurrentObserversAgreeOnOneReason) {
  // StopState.reason is a CAS latch: when a deadline expiry and an
  // explicit cancel race, exactly one cause wins and every observer —
  // on any thread, at any later time — reports that same cause.
  for (int round = 0; round < 20; ++round) {
    util::StopSource source;
    // A deadline already in the past: the first poll will try to latch
    // kDeadline while the cancel thread tries to latch kCancelled.
    source.set_deadline_after(std::chrono::nanoseconds(1));
    std::atomic<int> observed_cancelled{0};
    std::atomic<int> observed_deadline{0};
    {
      std::vector<std::thread> threads;
      threads.emplace_back([&] { source.request_stop(); });
      for (int i = 0; i < 3; ++i) {
        threads.emplace_back([&] {
          const util::StopToken token = source.token();
          while (!token.stop_requested()) {
          }
          if (token.reason() == util::StopReason::kCancelled) {
            ++observed_cancelled;
          } else if (token.reason() == util::StopReason::kDeadline) {
            ++observed_deadline;
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    // Every observer saw *some* latched reason, and they all agree.
    EXPECT_EQ(observed_cancelled.load() + observed_deadline.load(), 3);
    EXPECT_TRUE(observed_cancelled.load() == 0 ||
                observed_deadline.load() == 0)
        << "observers disagreed on the stop cause";
    // The source itself reports the same winner afterwards.
    const util::StopReason final_reason = source.token().reason();
    EXPECT_EQ(final_reason == util::StopReason::kCancelled,
              observed_cancelled.load() == 3);
  }
}

// --- fixed-batch fan-out ---------------------------------------------------

// Every batch index must run exactly once and cover exactly
// [b * batch_size, min((b+1) * batch_size, total)) — the whole
// determinism contract of the batch merge rests on this.
TEST(ThreadPool, ParallelForBatchesRunsEveryBatchExactlyOnce) {
  for (const unsigned workers : {1u, 2u, 3u, 4u, 8u}) {
    util::ThreadPool pool(workers);
    for (const std::size_t total : {1u, 5u, 64u, 257u, 1000u}) {
      for (const std::size_t batch_size : {1u, 3u, 64u, 256u}) {
        const std::size_t nbatches = (total + batch_size - 1) / batch_size;
        std::vector<std::atomic<int>> runs(nbatches);
        std::vector<std::atomic<int>> covered(total);
        pool.parallel_for_batches(
            total, batch_size,
            [&](std::size_t b, std::size_t begin, std::size_t end) {
              ASSERT_LT(b, nbatches);
              EXPECT_EQ(begin, b * batch_size);
              EXPECT_EQ(end, std::min(begin + batch_size, total));
              runs[b].fetch_add(1);
              for (std::size_t i = begin; i < end; ++i) covered[i].fetch_add(1);
            });
        for (std::size_t b = 0; b < nbatches; ++b) {
          EXPECT_EQ(runs[b].load(), 1)
              << "workers=" << workers << " total=" << total
              << " batch_size=" << batch_size << " batch=" << b;
        }
        for (std::size_t i = 0; i < total; ++i) {
          EXPECT_EQ(covered[i].load(), 1);
        }
      }
    }
  }
}

// Edge geometry: empty universe, fewer items than workers, one batch
// bigger than the whole shard, and the batch_size = 0 clamp.
TEST(ThreadPool, ParallelForBatchesEdgeCases) {
  util::ThreadPool pool(8);

  // total == 0: nothing runs.
  bool called = false;
  pool.parallel_for_batches(
      0, 16, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);

  // total < workers: three one-item batches, each exactly once.
  std::vector<std::atomic<int>> covered(3);
  pool.parallel_for_batches(
      3, 1, [&](std::size_t b, std::size_t begin, std::size_t end) {
        EXPECT_EQ(begin, b);
        EXPECT_EQ(end, b + 1);
        covered[b].fetch_add(1);
      });
  for (auto& c : covered) EXPECT_EQ(c.load(), 1);

  // batch_size > total: a single batch spanning the whole range.
  std::atomic<int> whole_runs{0};
  pool.parallel_for_batches(
      10, 1000, [&](std::size_t b, std::size_t begin, std::size_t end) {
        EXPECT_EQ(b, 0u);
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 10u);
        whole_runs.fetch_add(1);
      });
  EXPECT_EQ(whole_runs.load(), 1);

  // batch_size == 0 clamps to 1 (one batch per item).
  std::atomic<int> clamped_batches{0};
  pool.parallel_for_batches(
      5, 0, [&](std::size_t, std::size_t begin, std::size_t end) {
        EXPECT_EQ(end, begin + 1);
        clamped_batches.fetch_add(1);
      });
  EXPECT_EQ(clamped_batches.load(), 5);
}

// A throwing batch surfaces on the caller, and the pool stays usable
// afterwards.
TEST(ThreadPool, ParallelForBatchesRethrowsFirstBatchError) {
  util::ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for_batches(
                   100, 8,
                   [](std::size_t b, std::size_t, std::size_t) {
                     if (b == 2) throw std::runtime_error("batch failed");
                   }),
               std::runtime_error);
  std::atomic<int> ran{0};
  pool.parallel_for_batches(16, 4,
                            [&ran](std::size_t, std::size_t begin,
                                   std::size_t end) {
                              ran += static_cast<int>(end - begin);
                            });
  EXPECT_EQ(ran.load(), 16);
}

// A task the worker loses before running it (the fail point throws in
// its place) still counts down the fan-out's latch: the call rethrows
// the failure instead of hanging, and the pool stays usable.
TEST(ThreadPool, ParallelForBatchesRethrowsLostTask) {
  util::ThreadPool pool(2);
  {
    util::FailPointScope scope;
    util::FailPoint::arm("thread_pool.task", {.fires = 1});
    EXPECT_THROW(pool.parallel_for_batches(
                     8, 1, [](std::size_t, std::size_t, std::size_t) {}),
                 util::FailPointError);
  }
  std::atomic<int> ran{0};
  pool.parallel_for_batches(8, 1, [&ran](std::size_t, std::size_t begin,
                                         std::size_t end) {
    ran += static_cast<int>(end - begin);
  });
  EXPECT_EQ(ran.load(), 8);
}

// Each fan-out waits for its own tasks only: a caller whose batch is
// still blocked on one worker does not hold up another caller's
// fan-out on the same pool (a pool-wide idle barrier would
// deadlock here).
TEST(ThreadPool, ConcurrentFanOutsWaitOnlyForTheirOwnTasks) {
  util::ThreadPool pool(2);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::thread blocked([&] {
    pool.parallel_for_batches(1, 1, [&](std::size_t, std::size_t,
                                        std::size_t) {
      started = true;
      while (!release) std::this_thread::yield();
    });
  });
  while (!started) std::this_thread::yield();
  std::atomic<int> ran{0};
  pool.parallel_for_batches(4, 1, [&ran](std::size_t, std::size_t,
                                         std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 4);
  release = true;
  blocked.join();
}

TEST(ThreadPool, SharedPoolIsOnePoolPerWorkerCount) {
  util::ThreadPool& three = util::shared_pool(3);
  EXPECT_EQ(three.workers(), 3u);
  EXPECT_EQ(&util::shared_pool(3), &three);
  EXPECT_NE(&util::shared_pool(2), &three);
  EXPECT_EQ(util::shared_pool(2).workers(), 2u);
}

}  // namespace
}  // namespace prt
