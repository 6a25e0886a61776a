// SfEstimator: the lock-free sampling accumulator (paper Sec. 4.2, fn. 2).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
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
  EXPECT_TRUE(e.record(1, 50, 1));
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 1.0})[1], 2.0);
  // Every multiple of the expected count signals again.
  EXPECT_FALSE(e.record(0, 100, 1));
  EXPECT_FALSE(e.record(0, 100, 1));
  EXPECT_TRUE(e.record(0, 100, 1));
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
  e.reset(2);
  EXPECT_FALSE(e.record(0, 200, 1));
  EXPECT_TRUE(e.record(1, 25, 1));
  const auto sf = sf_of(e, {1.0, 1.0});
  EXPECT_DOUBLE_EQ(sf[1], 8.0) << "old phase data must not leak";
}

TEST(SfEstimator, NextWindowIsolatesWindows) {
  SfEstimator e(2);
  e.reset(2);
  EXPECT_FALSE(e.record(0, 100, 1));
  EXPECT_TRUE(e.record(1, 50, 1));
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 1.0})[1], 2.0);
  std::vector<double> rates(2);
  e.next_window(rates);
  EXPECT_EQ(rates, (std::vector<double>{1.0 / 100.0, 1.0 / 50.0}));

  // Window 2 alone reads 8; pooled with window 1 it would read 300/75 = 4.
  EXPECT_FALSE(e.record(0, 200, 1));
  EXPECT_TRUE(e.record(1, 25, 1));
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 1.0})[1], 8.0);
  EXPECT_DOUBLE_EQ(e.rate(0), 1.0 / 200.0);
  e.next_window(rates);
  EXPECT_EQ(rates, (std::vector<double>{1.0 / 200.0, 1.0 / 25.0}));

  // A type with no samples in this window reads rate 0 and falls back to
  // its nominal speed, although earlier windows sampled it.
  EXPECT_FALSE(e.record(0, 100, 1));
  EXPECT_TRUE(e.record(1, 0, 0));
  EXPECT_DOUBLE_EQ(e.rate(1), 0.0);
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 2.5})[1], 2.5);
  e.next_window(rates);
  EXPECT_EQ(rates, (std::vector<double>{1.0 / 100.0, 0.0}));

  // A window without records reads 0 everywhere.
  e.next_window(rates);
  EXPECT_EQ(rates, (std::vector<double>{0.0, 0.0}));

  // reset() re-arms for a new construct, at a new team size.
  e.reset(3);
  EXPECT_FALSE(e.record(0, 300, 1));
  EXPECT_FALSE(e.record(0, 300, 1));
  EXPECT_TRUE(e.record(1, 100, 1));
  EXPECT_DOUBLE_EQ(sf_of(e, {1.0, 1.0})[1], 3.0);
}

TEST(SfEstimator, WindowsUnderConcurrency) {
  // AID-dynamic's protocol: every thread records at will, and a signalled
  // recorder reads a window only if no other window is being read (a
  // try-flag). Exactly one record() per kThreads records signals, and
  // every window reads finite, non-negative rates. The windows are not
  // exact — a window may split records in flight, as many as land while
  // its reader sits between two loads — so the rates are not compared
  // with the samples'.
  constexpr int kThreads = 4;
  constexpr i64 kRecords = 20000;  // per thread
  SfEstimator e(2);
  e.reset(kThreads);
  std::atomic<i64> signals{0};
  std::atomic<i64> windows{0};
  std::atomic<i64> bad_rates{0};
  std::atomic<bool> reading{false};
  {
    std::vector<std::jthread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (i64 r = 0; r < kRecords; ++r) {
          if (!e.record(t % 2, 100 + (r + t) % 50, 1 + r % 5)) continue;
          signals.fetch_add(1);
          if (reading.exchange(true, std::memory_order_acquire)) continue;
          std::vector<double> rates(2);
          e.next_window(rates);
          for (const double rate : rates)
            if (!(rate >= 0.0 && std::isfinite(rate))) bad_rates.fetch_add(1);
          windows.fetch_add(1);
          reading.store(false, std::memory_order_release);
        }
      });
    }
  }
  EXPECT_EQ(signals.load(), kRecords);  // kThreads·kRecords / kThreads
  EXPECT_GT(windows.load(), 0);
  EXPECT_EQ(bad_rates.load(), 0);
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
    ASSERT_GT(sf_of(e, {1.0, 1.0})[1], 0.0);
  }
}

TEST(AidKFormula, TwoType) {
  EXPECT_DOUBLE_EQ(aid_k(800, {4, 4}, {1.0, 3.0}), 50.0);
}

}  // namespace
}  // namespace aid::sched
