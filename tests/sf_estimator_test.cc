// SfEstimator: the lock-free sampling accumulator (paper Sec. 4.2, fn. 2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "sched/sf_estimator.h"

namespace aid::sched {
namespace {

// speedup_factors() in both forms: the in-place one, writing over the very
// vector it takes the fallback from (how the AID schedulers call it), must
// equal the returning one.
std::vector<double> sf_of(const SfEstimator& e, std::vector<double> fallback) {
  const std::vector<double> returned = e.speedup_factors(fallback);
  e.speedup_factors(fallback, fallback);
  EXPECT_EQ(fallback, returned) << "in-place form diverges";
  return returned;
}

TEST(SfEstimator, LastRecorderIsSignalled) {
  SfEstimator e(2);
  e.reset(3);
  EXPECT_FALSE(e.record(0, 100, 1));
  EXPECT_FALSE(e.record(1, 50, 1));
  EXPECT_FALSE(e.complete());
  EXPECT_TRUE(e.record(1, 50, 1));
  EXPECT_TRUE(e.complete());
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 1.0})[1], 2.0);
}

TEST(SfEstimator, EqualChunksReduceToPaperTimeRatio) {
  // 2 small threads at 300ns/iter, 2 big at 100ns/iter, 1 iteration each:
  // SF = avg small time / avg big time = 3.
  SfEstimator e(2);
  e.reset(4);
  e.record(0, 300, 1);
  e.record(0, 300, 1);
  e.record(1, 100, 1);
  e.record(1, 100, 1);
  const auto sf = sf_of(e, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(sf[0], 1.0);
  EXPECT_DOUBLE_EQ(sf[1], 3.0);
}

TEST(SfEstimator, RateBasedHandlesUnequalChunks) {
  // Big thread did 10 iterations in 500ns (rate 0.02), small did 2 in
  // 400ns (rate 0.005): SF = 4 regardless of the chunk difference.
  SfEstimator e(2);
  e.reset(2);
  e.record(0, 400, 2);
  e.record(1, 500, 10);
  const auto sf = sf_of(e, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(sf[1], 4.0);
}

TEST(SfEstimator, ZeroIterationSamplesDoNotPollute) {
  SfEstimator e(2);
  e.reset(3);
  e.record(0, 100, 1);
  e.record(1, 0, 0);  // found the pool empty
  e.record(1, 25, 1);
  const auto sf = sf_of(e, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(sf[1], 4.0);
}

TEST(SfEstimator, MissingTypeFallsBackToNominalSpeed) {
  SfEstimator e(2);
  e.reset(2);
  e.record(0, 100, 1);
  e.record(0, 100, 1);  // nobody sampled type 1
  const auto sf = sf_of(e, {1.0, 2.4});
  EXPECT_DOUBLE_EQ(sf[0], 1.0);
  EXPECT_DOUBLE_EQ(sf[1], 2.4);
}

TEST(SfEstimator, ZeroElapsedClampedToOneNanosecond) {
  SfEstimator e(2);
  e.reset(2);
  e.record(0, 0, 5);  // coarse timer: 0ns for 5 iterations
  e.record(1, 10, 5);
  const auto sf = sf_of(e, {1.0, 1.0});
  EXPECT_GT(sf[1], 0.0);
  EXPECT_LT(sf[1], 1.0);  // type1 measured slower here; clamped, not inf/nan
}

TEST(SfEstimator, SfClampedBelow) {
  SfEstimator e(2);
  e.reset(2);
  e.record(0, 1, 1000000);  // absurd rate for the slow type
  e.record(1, 1000000, 1);
  const auto sf = sf_of(e, {1.0, 1.0});
  EXPECT_GE(sf[1], SfEstimator::kMinSf);
}

TEST(SfEstimator, ThreeTypes) {
  SfEstimator e(3);
  e.reset(3);
  e.record(0, 600, 1);
  e.record(1, 300, 1);
  e.record(2, 100, 1);
  const auto sf = sf_of(e, {1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(sf[0], 1.0);
  EXPECT_DOUBLE_EQ(sf[1], 2.0);
  EXPECT_DOUBLE_EQ(sf[2], 6.0);
}

TEST(SfEstimator, ResetRearmsForNextPhase) {
  SfEstimator e(2);
  e.reset(2);
  e.record(0, 100, 1);
  e.record(1, 50, 1);
  EXPECT_TRUE(e.complete());
  e.reset(2);
  EXPECT_FALSE(e.complete());
  e.record(0, 200, 1);
  e.record(1, 25, 1);
  const auto sf = sf_of(e, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(sf[1], 8.0) << "old phase data must not leak";
}

TEST(SfEstimator, NextPhaseIsolatesPhases) {
  SfEstimator e(2);
  e.reset(2);
  EXPECT_FALSE(e.record(0, 100, 1));
  EXPECT_TRUE(e.record(1, 50, 1));
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 1.0})[1], 2.0);

  // Phase 2 alone reads 8; pooled with phase 1 it would read 300/75 = 4.
  e.next_phase();
  EXPECT_FALSE(e.complete());
  EXPECT_FALSE(e.record(0, 200, 1));
  EXPECT_TRUE(e.record(1, 25, 1));
  EXPECT_TRUE(e.complete());
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 1.0})[1], 8.0);
  EXPECT_DOUBLE_EQ(e.rate(0), 1.0 / 200.0);

  // A type with no samples in this phase falls back to its nominal speed,
  // although earlier phases sampled it.
  e.next_phase();
  EXPECT_FALSE(e.record(0, 100, 1));
  EXPECT_TRUE(e.record(1, 0, 0));
  EXPECT_DOUBLE_EQ(e.rate(1), 0.0);
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 2.5})[1], 2.5);

  // reset() re-arms for a new construct, at a new team size.
  e.reset(3);
  EXPECT_FALSE(e.complete());
  EXPECT_FALSE(e.record(0, 300, 1));
  EXPECT_FALSE(e.record(0, 300, 1));
  EXPECT_TRUE(e.record(1, 100, 1));
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 1.0})[1], 3.0);
}

TEST(SfEstimator, PhasesCloseOnceEachUnderConcurrency) {
  // AID-dynamic's protocol: each thread records once per phase, and only
  // after the closer of the previous phase called next_phase() and
  // released the next epoch. Then exactly one record() per phase returns
  // true, and the closer's SF is that phase's samples alone.
  constexpr int kThreads = 4;
  constexpr i64 kPhases = 10000;
  // Thread t runs on core type t % 2; its sample varies with the phase.
  const auto elapsed_of = [](i64 phase, int t) {
    return Nanos{100 + (phase * 7 + t * 13) % 50};
  };
  const auto iters_of = [](i64 phase, int t) {
    return i64{1 + (phase + t) % 5};
  };
  const auto expected_sf = [&](i64 phase) {
    i64 time[2] = {0, 0};
    i64 iters[2] = {0, 0};
    for (int t = 0; t < kThreads; ++t) {
      time[t % 2] += elapsed_of(phase, t);
      iters[t % 2] += iters_of(phase, t);
    }
    return (static_cast<double>(iters[1]) / static_cast<double>(time[1])) /
           (static_cast<double>(iters[0]) / static_cast<double>(time[0]));
  };

  SfEstimator e(2);
  e.reset(kThreads);
  const std::vector<double> nominal{1.0, 1.0};
  std::vector<std::atomic<int>> closes(static_cast<usize>(kPhases));
  std::atomic<i64> wrong_sf{0};
  std::atomic<i64> epoch{0};
  // A phase nobody closes fails the test instead of hanging it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (i64 p = 0; p < kPhases; ++p) {
          while (epoch.load(std::memory_order_acquire) < p) {
            if (std::chrono::steady_clock::now() > deadline) return;
            std::this_thread::yield();
          }
          if (!e.record(t % 2, elapsed_of(p, t), iters_of(p, t))) continue;
          closes[static_cast<usize>(p)].fetch_add(1);
          if (e.speedup_factors(nominal)[1] != expected_sf(p))
            wrong_sf.fetch_add(1);
          e.next_phase();
          epoch.store(p + 1, std::memory_order_release);
        }
      });
    }
  }
  EXPECT_EQ(epoch.load(), kPhases);
  EXPECT_EQ(wrong_sf.load(), 0);
  for (i64 p = 0; p < kPhases; ++p)
    ASSERT_EQ(closes[static_cast<usize>(p)].load(), 1) << "phase " << p;
}

TEST(SfEstimator, ConcurrentRecordingCountsExactly) {
  // The completion counter must be exact under true concurrency (this is
  // what makes AID lock-free rather than racy).
  constexpr int kThreads = 8;
  constexpr int kRounds = 200;
  SfEstimator e(2);
  for (int round = 0; round < kRounds; ++round) {
    e.reset(kThreads);
    std::atomic<int> last_signals{0};
    {
      std::vector<std::jthread> threads;
      threads.reserve(kThreads);
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&e, &last_signals, t] {
          if (e.record(t % 2, 100 + t, 1)) last_signals.fetch_add(1);
        });
      }
    }
    ASSERT_EQ(last_signals.load(), 1) << "exactly one thread closes a phase";
    ASSERT_TRUE(e.complete());
    ASSERT_GT(sf_of(e, {1.0, 1.0})[1], 0.0);
  }
}

TEST(AidKFormula, TwoType) {
  EXPECT_DOUBLE_EQ(aid_k(800, {4, 4}, {1.0, 3.0}), 50.0);
}

}  // namespace
}  // namespace aid::sched
