// IterationSpace: user-loop normalization (both step signs, empty loops,
// value mapping) and the WorkShare pool under real concurrency.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "sched/iteration_space.h"
#include "sched/work_share.h"

namespace aid::sched {
namespace {

TEST(IterationSpace, PositiveStep) {
  const IterationSpace s(0, 10, 1);
  EXPECT_EQ(s.count(), 10);
  EXPECT_EQ(s.value_of(0), 0);
  EXPECT_EQ(s.value_of(9), 9);
}

TEST(IterationSpace, PositiveStrided) {
  // for (i = 3; i < 20; i += 4): 3, 7, 11, 15, 19.
  const IterationSpace s(3, 20, 4);
  EXPECT_EQ(s.count(), 5);
  EXPECT_EQ(s.value_of(0), 3);
  EXPECT_EQ(s.value_of(4), 19);
}

TEST(IterationSpace, NegativeStep) {
  // for (i = 10; i > 0; i -= 3): 10, 7, 4, 1.
  const IterationSpace s(10, 0, -3);
  EXPECT_EQ(s.count(), 4);
  EXPECT_EQ(s.value_of(0), 10);
  EXPECT_EQ(s.value_of(3), 1);
}

TEST(IterationSpace, EmptyLoops) {
  EXPECT_EQ(IterationSpace(5, 5, 1).count(), 0);
  EXPECT_EQ(IterationSpace(10, 0, 1).count(), 0);
  EXPECT_EQ(IterationSpace(0, 10, -1).count(), 0);
}

TEST(IterationSpace, ExactBoundary) {
  // for (i = 0; i < 12; i += 4): 0, 4, 8.
  const IterationSpace s(0, 12, 4);
  EXPECT_EQ(s.count(), 3);
  EXPECT_EQ(s.value_of(2), 8);
}

TEST(IterRange, SizeAndEmpty) {
  EXPECT_EQ((IterRange{3, 7}).size(), 4);
  EXPECT_TRUE((IterRange{5, 5}).empty());
  EXPECT_EQ((IterRange{7, 3}).size(), 0) << "inverted ranges are empty";
}

TEST(WorkShare, SequentialTakeClampsAtEnd) {
  WorkShare pool;
  pool.reset(10);
  EXPECT_EQ(pool.take(4), (IterRange{0, 4}));
  EXPECT_EQ(pool.take(4), (IterRange{4, 8}));
  EXPECT_EQ(pool.take(4), (IterRange{8, 10})) << "clamped";
  EXPECT_TRUE(pool.take(4).empty());
  EXPECT_EQ(pool.removals(), 3)
      << "a probe of an exhausted pool is not a removal";
  EXPECT_TRUE(pool.take(4).empty());
  EXPECT_EQ(pool.removals(), 3) << "repeated drained probes stay uncounted";
}

TEST(WorkShare, DrainedPoolStopsAdvancing) {
  // The endgame-stealing fix: once drained, probes must not keep growing
  // next_ (previously it grew by `want` per failed take forever).
  WorkShare pool;
  pool.reset(8);
  (void)pool.take(8);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(pool.take(1'000'000).empty());
  EXPECT_EQ(pool.remaining(), 0);
  EXPECT_EQ(pool.removals(), 1);
}

TEST(WorkShare, PerThreadRemovalSlotsAggregate) {
  WorkShare pool(/*nthreads=*/3);
  pool.reset(9);
  EXPECT_EQ(pool.take(3, /*tid=*/0).size(), 3);
  EXPECT_EQ(pool.take(3, /*tid=*/1).size(), 3);
  EXPECT_EQ(pool.take(3, /*tid=*/2).size(), 3);
  EXPECT_TRUE(pool.take(3, /*tid=*/1).empty());
  EXPECT_EQ(pool.removals(), 3);
}

TEST(WorkShare, RemainingNeverNegative) {
  WorkShare pool;
  pool.reset(5);
  (void)pool.take(100);
  EXPECT_EQ(pool.remaining(), 0);
  (void)pool.take(1);
  EXPECT_EQ(pool.remaining(), 0);
}

TEST(WorkShare, AdaptiveTakeUsesLiveRemaining) {
  WorkShare pool;
  pool.reset(100);
  const auto half = [](i64 remaining) { return remaining / 2 + 1; };
  EXPECT_EQ(pool.take_adaptive(half).size(), 51);
  EXPECT_EQ(pool.take_adaptive(half).size(), 25);
  while (!pool.take_adaptive(half).empty()) {
  }
  EXPECT_EQ(pool.remaining(), 0);
}

TEST(WorkShareStress, ConcurrentTakesPartitionExactly) {
  // 8 real threads hammer one pool; every iteration must be handed out
  // exactly once. This is the lock-free fetch-add contract under genuine
  // contention (paper Sec. 4.2).
  constexpr i64 kCount = 200'000;
  constexpr int kThreads = 8;
  WorkShare pool(kThreads);
  pool.reset(kCount);
  std::vector<std::vector<IterRange>> taken(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&pool, &mine = taken[static_cast<usize>(t)], t] {
        const i64 chunk = 1 + t % 4;  // mixed chunk sizes
        for (;;) {
          const IterRange r = pool.take(chunk, t);
          if (r.empty()) return;
          mine.push_back(r);
        }
      });
    }
  }
  std::vector<u8> seen(kCount, 0);
  for (const auto& ranges : taken) {
    for (const auto& r : ranges) {
      for (i64 i = r.begin; i < r.end; ++i) {
        ASSERT_EQ(seen[static_cast<usize>(i)], 0) << "duplicate " << i;
        seen[static_cast<usize>(i)] = 1;
      }
    }
  }
  for (i64 i = 0; i < kCount; ++i) ASSERT_EQ(seen[static_cast<usize>(i)], 1);
  // The owner-only removal slots are exact: one per non-empty range.
  i64 sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    const auto received =
        static_cast<i64>(taken[static_cast<usize>(t)].size());
    EXPECT_EQ(pool.removals_of(t), received) << "tid " << t;
    sum += received;
  }
  EXPECT_EQ(pool.removals(), sum);
}

TEST(WorkShareStress, ConcurrentAdaptiveTakes) {
  constexpr i64 kCount = 100'000;
  constexpr int kThreads = 8;
  WorkShare pool(kThreads);
  pool.reset(kCount);
  std::atomic<i64> total{0};
  std::atomic<i64> ranges{0};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (;;) {
          const IterRange r =
              pool.take_adaptive([](i64 rem) { return rem / 16 + 1; }, t);
          if (r.empty()) return;
          total.fetch_add(r.size());
          ranges.fetch_add(1);
        }
      });
    }
  }
  EXPECT_EQ(total.load(), kCount);
  EXPECT_EQ(pool.removals(), ranges.load());
}

}  // namespace
}  // namespace aid::sched
