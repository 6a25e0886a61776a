// AidDynamicScheduler: Fig. 5 without its phase rendezvous — the sampling
// chunk, R·M blocks taken as soon as the last one ends, R recomputed from
// each window of N records, and the endgame optimization.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/time_source.h"
#include "sched/aid_dynamic_sched.h"
#include "test_util.h"

namespace aid::sched {
namespace {

using test::amp_2s2b;
using test::drive;
using test::total_of;

TEST(AidDynamic, CoversAllIterations) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  for (i64 count : {0, 1, 7, 100, 1000, 4096}) {
    const auto r = drive(ScheduleSpec::aid_dynamic(1, 5), count, layout,
                         *test::uniform_cost(500, 3.0));
    EXPECT_EQ(r.sim.total_iterations(), count) << "count=" << count;
  }
}

TEST(AidDynamic, FewerRemovalsThanDynamic) {
  // The design goal (Sec. 4.2): reduce pool removals by letting big-core
  // threads take R*M at once.
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto cost = test::uniform_cost(1000, 3.0);
  const auto aid = drive(ScheduleSpec::aid_dynamic(1, 10), 8000, layout, *cost);
  const auto dyn = drive(ScheduleSpec::dynamic(1), 8000, layout, *cost);
  EXPECT_LT(aid.sim.pool_removals, dyn.sim.pool_removals / 3);
}

TEST(AidDynamic, ProgressRatioConvergesToSpeedRatio) {
  const auto p = amp_2s2b(4.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto sched = make_scheduler(ScheduleSpec::aid_dynamic(1, 8), 20000, layout);
  sim::LoopSimulator simulator(layout, sim::OverheadModel::zero());
  (void)simulator.run(*sched, 20000, *test::uniform_cost(1000, 4.0));
  auto* aid = dynamic_cast<AidDynamicScheduler*>(sched.get());
  ASSERT_NE(aid, nullptr);
  const auto ratios = aid->progress_ratios();
  ASSERT_EQ(ratios.size(), 2u);
  EXPECT_NEAR(ratios[1], 4.0, 0.5);
}

TEST(AidDynamic, RunsMultiplePhases) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_dynamic(1, 5), 4000, layout,
                       *test::uniform_cost(1000, 3.0));
  EXPECT_GT(r.sim.aid_phases, 3);
}

TEST(AidDynamic, EndgameSwitchesToMinorChunks) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto sched = make_scheduler(ScheduleSpec::aid_dynamic(1, 5), 500, layout);
  sim::LoopSimulator simulator(layout, sim::OverheadModel::zero());
  (void)simulator.run(*sched, 500, *test::uniform_cost(1000, 3.0));
  auto* aid = dynamic_cast<AidDynamicScheduler*>(sched.get());
  ASSERT_NE(aid, nullptr);
  EXPECT_TRUE(aid->in_endgame())
      << "a 500-iteration loop must reach the M*(NB+NS) endgame";
}

TEST(AidDynamic, BalancesUnevenWork) {
  // Lognormal-style unevenness via an affine ramp: AID-dynamic must stay
  // close to dynamic's balance (its raison d'etre is matching dynamic with
  // less overhead).
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto cost = std::make_shared<sim::AffineCostModel>(
      400.0, 0.3, 8000, std::vector<double>{1.0, 3.0});
  const auto aid = drive(ScheduleSpec::aid_dynamic(1, 5), 8000, layout, *cost);
  const auto dyn = drive(ScheduleSpec::dynamic(1), 8000, layout, *cost);
  EXPECT_LT(static_cast<double>(aid.sim.completion_ns),
            static_cast<double>(dyn.sim.completion_ns) * 1.10);
}

TEST(AidDynamic, LessChunkSensitiveThanDynamic) {
  // Fig. 8: large chunks wreck dynamic (end-of-loop imbalance) but barely
  // hurt AID-dynamic thanks to the endgame switch.
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  const auto cost = test::uniform_cost(1000, 3.0);
  const i64 count = 4000;

  const auto dyn_small = drive(ScheduleSpec::dynamic(1), count, layout, *cost);
  const auto dyn_big = drive(ScheduleSpec::dynamic(30), count, layout, *cost);
  const auto aid_small =
      drive(ScheduleSpec::aid_dynamic(1, 5), count, layout, *cost);
  const auto aid_big =
      drive(ScheduleSpec::aid_dynamic(1, 30), count, layout, *cost);

  const double dyn_penalty = static_cast<double>(dyn_big.sim.completion_ns) /
                             static_cast<double>(dyn_small.sim.completion_ns);
  const double aid_penalty = static_cast<double>(aid_big.sim.completion_ns) /
                             static_cast<double>(aid_small.sim.completion_ns);
  EXPECT_LT(aid_penalty, dyn_penalty);
  EXPECT_LT(aid_penalty, 1.10) << "AID-dynamic should absorb big M";
}

TEST(AidDynamic, UniformTeamStillWorks) {
  const auto p = platform::symmetric(4);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kSmallFirst);
  const auto r = drive(ScheduleSpec::aid_dynamic(2, 6), 1000, layout,
                       *std::make_shared<sim::UniformCostModel>(
                           500.0, std::vector<double>{1.0}));
  EXPECT_EQ(r.sim.total_iterations(), 1000);
  for (int tid = 0; tid < 4; ++tid)
    EXPECT_NEAR(static_cast<double>(total_of(r, tid)), 250.0, 60.0);
}

TEST(AidDynamic, SingleThread) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 1, platform::Mapping::kBigFirst);
  const auto r = drive(ScheduleSpec::aid_dynamic(1, 5), 64, layout,
                       *test::uniform_cost(100, 3.0));
  EXPECT_EQ(total_of(r, 0), 64);
}

TEST(AidDynamic, MajorChunkMustDominateMinor) {
  EXPECT_FALSE(parse_schedule("aid-dynamic,10,5").has_value());
  EXPECT_TRUE(parse_schedule("aid-dynamic,5,10").has_value());
}

TEST(AidDynamic, ResetReplaysIdentically) {
  const auto p = amp_2s2b(3.0);
  const platform::TeamLayout layout(p, 4, platform::Mapping::kBigFirst);
  auto sched = make_scheduler(ScheduleSpec::aid_dynamic(1, 5), 2000, layout);
  sim::LoopSimulator simulator(layout, sim::OverheadModel::zero());
  const auto cost = test::uniform_cost(800, 3.0);
  const auto r1 = simulator.run(*sched, 2000, *cost);
  sched->reset(2000);
  const auto r2 = simulator.run(*sched, 2000, *cost);
  EXPECT_EQ(r1.completion_ns, r2.completion_ns);
  EXPECT_EQ(r1.iterations, r2.iterations);
}

// An AidDynamicScheduler driven call by call on one shard per thread (the
// pool the runtime arms), bound big-first, with m = 1, M = 5 and one
// manual clock per thread.
class HandDrivenAidDynamic {
 public:
  static constexpr i64 kMinor = 1;
  static constexpr i64 kMajor = 5;

  HandDrivenAidDynamic(const platform::Platform& platform, int nthreads,
                       i64 count)
      : layout_(platform, nthreads, platform::Mapping::kBigFirst),
        clocks_(static_cast<usize>(nthreads)),
        sched_(count, layout_, kMinor, kMajor, /*endgame_enabled=*/true,
               /*sharded=*/true) {}

  /// `tid` ends its block after `elapsed` ns of its clock and calls next();
  /// the range it was handed (empty: its loop ended).
  IterRange next(int tid, Nanos elapsed = 100) {
    ManualTimeSource& clock = clocks_[static_cast<usize>(tid)];
    clock.advance(elapsed);
    ThreadContext tc{.tid = tid,
                     .core_type = layout_.core_type_of(tid),
                     .speed = layout_.speed_of(tid),
                     .time = &clock};
    IterRange r;
    if (!sched_.next(tc, r)) return {};
    return r;
  }

  AidDynamicScheduler& sched() { return sched_; }

 private:
  platform::TeamLayout layout_;
  std::vector<ManualTimeSource> clocks_;
  AidDynamicScheduler sched_;
};

// The endgame test reads the caller's home shard first. A drained home
// shard is no reason to end: the decision is still the pool's total.
TEST(AidDynamic, DrainedHomeShardWithFatForeignShardsStaysOutOfTheEndgame) {
  // Symmetric: no sampling chunk, every block is M. Each home shard holds
  // 100 iterations, so thread 0 drains its own in 20 blocks.
  HandDrivenAidDynamic h(platform::symmetric(4), 4, 400);
  for (int block = 0; block < 20; ++block) {
    const IterRange r = h.next(0);
    ASSERT_EQ(r.size(), HandDrivenAidDynamic::kMajor);
    ASSERT_LE(r.end, 100) << "taken from home";
  }
  ASSERT_EQ(h.sched().remaining(), 300);
  // Its home shard is empty, the three foreign ones hold 100 each: the
  // next block comes from a foreign shard, and the loop is not ending.
  const IterRange r = h.next(0);
  EXPECT_EQ(r.size(), HandDrivenAidDynamic::kMajor);
  EXPECT_GE(r.begin, 100);
  EXPECT_FALSE(h.sched().in_endgame());
}

// Every thread takes two M blocks from its own home shard, so the pool
// holds `left` iterations when thread 0 calls next() again: does that call
// start the endgame? The endgame hands out m-chunks, a block is M.
bool endgame_with_left(i64 left) {
  HandDrivenAidDynamic h(platform::symmetric(4), 4, left + 8 * 5);
  for (int round = 0; round < 2; ++round)
    for (int tid = 0; tid < 4; ++tid)
      EXPECT_EQ(h.next(tid).size(), HandDrivenAidDynamic::kMajor);
  EXPECT_EQ(h.sched().remaining(), left);
  EXPECT_FALSE(h.sched().in_endgame());
  const IterRange r = h.next(0);
  EXPECT_EQ(r.size(), h.sched().in_endgame() ? HandDrivenAidDynamic::kMinor
                                             : HandDrivenAidDynamic::kMajor);
  return h.sched().in_endgame();
}

TEST(AidDynamic, EndgameStartsAtMajorTimesThreadsRemaining) {
  constexpr i64 kThreshold = HandDrivenAidDynamic::kMajor * 4;
  EXPECT_TRUE(endgame_with_left(kThreshold - 3));
  EXPECT_TRUE(endgame_with_left(kThreshold));  // exactly M·N left
  EXPECT_FALSE(endgame_with_left(kThreshold + 1));
}

// The timed protocol, on generic_amp(2, 2, 2.0) bound big-first: threads 0
// and 1 run on the big cores (type 1), 2 and 3 on the small ones (type 0).
// A big thread's block is round(R·M), a small thread's M.
HandDrivenAidDynamic amp_team() {
  return HandDrivenAidDynamic(platform::generic_amp(2, 2, 2.0), 4, 4000);
}

TEST(AidDynamic, BlockFollowsTheSamplingChunkWithoutWaitingForPeers) {
  HandDrivenAidDynamic h = amp_team();
  EXPECT_EQ(h.next(0).size(), HandDrivenAidDynamic::kMinor);  // sampling
  // Nobody else has recorded: thread 0 still gets a full block at once,
  // with the R it starts from.
  EXPECT_EQ(h.next(0).size(), HandDrivenAidDynamic::kMajor);
  EXPECT_EQ(h.sched().progress_ratios(), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(h.sched().stats().aid_phases, 0);
  EXPECT_EQ(h.next(0).size(), HandDrivenAidDynamic::kMajor);
}

TEST(AidDynamic, RMovesOnlyAtTheNthRecordAndOnlyFromItsWindow) {
  HandDrivenAidDynamic h = amp_team();
  std::vector<i64> size(4);
  for (int tid = 0; tid < 4; ++tid) size[tid] = h.next(tid).size();
  ASSERT_EQ(size, (std::vector<i64>{1, 1, 1, 1}));
  // Window 1, the sampling chunks: 100 ns per iteration on the big cores,
  // 300 on the small ones. Three records leave R alone.
  size[0] = h.next(0, 100).size();
  size[1] = h.next(1, 100).size();
  size[2] = h.next(2, 300).size();
  EXPECT_EQ(h.sched().progress_ratios(), (std::vector<double>{1.0, 1.0}));
  EXPECT_EQ(h.sched().stats().aid_phases, 0);
  // The fourth recomputes R from the four.
  size[3] = h.next(3, 300).size();
  EXPECT_EQ(h.sched().stats().aid_phases, 1);
  EXPECT_DOUBLE_EQ(h.sched().progress_ratios()[1], 3.0);
  EXPECT_DOUBLE_EQ(h.sched().stats().estimated_sf, 3.0);
  EXPECT_EQ(size, (std::vector<i64>{5, 5, 5, 5}));

  // Window 2: four blocks per thread, one record each, at 25 ns per
  // iteration on the big cores and 100 on the small ones. Pooled with
  // window 1 they would read 4.14, not 4.
  const Nanos ns_per_iter[] = {100, 25};
  const auto run_blocks = [&](int tid) {
    for (int block = 0; block < AidDynamicScheduler::kBlocksPerRecord;
         ++block) {
      const Nanos ns = ns_per_iter[tid < 2 ? 1 : 0];
      size[static_cast<usize>(tid)] =
          h.next(tid, size[static_cast<usize>(tid)] * ns).size();
    }
  };
  for (int tid = 0; tid < 3; ++tid) run_blocks(tid);
  EXPECT_EQ(h.sched().stats().aid_phases, 1);
  EXPECT_DOUBLE_EQ(h.sched().progress_ratios()[1], 3.0);
  EXPECT_EQ(size[0], 15) << "a big block after the recompute is round(3·5)";
  run_blocks(3);
  EXPECT_EQ(h.sched().stats().aid_phases, 2);
  EXPECT_DOUBLE_EQ(h.sched().progress_ratios()[0], 1.0);
  EXPECT_DOUBLE_EQ(h.sched().progress_ratios()[1], 4.0);
  EXPECT_DOUBLE_EQ(h.sched().stats().estimated_sf, 3.0)
      << "the loop's SF is the first complete recompute's";
}

// The big cores end their sampling chunks first, and their later blocks
// run warm. The first window waits for every thread's sampling chunk, and
// holds nothing else: the big threads' blocks are recorded only after it.
TEST(AidDynamic, FirstWindowIsTheSamplingChunks) {
  HandDrivenAidDynamic h = amp_team();
  std::vector<i64> size(4);
  for (int tid = 0; tid < 4; ++tid) size[tid] = h.next(tid).size();
  // Threads 0 and 1 end their sampling chunks at 100 ns per iteration,
  // then eight blocks each at 10: two records so far.
  for (const int tid : {0, 1}) {
    size[tid] = h.next(tid, 100).size();
    for (int block = 0; block < 2 * AidDynamicScheduler::kBlocksPerRecord;
         ++block)
      size[tid] = h.next(tid, size[tid] * 10).size();
  }
  EXPECT_EQ(h.sched().stats().aid_phases, 0);
  EXPECT_EQ(h.sched().stats().estimated_sf, 0.0) << "not measured yet";
  EXPECT_EQ(size[0], HandDrivenAidDynamic::kMajor) << "R is still 1";

  // The small threads' samples, at 300 ns per iteration, complete the
  // window: R and the loop's SF are the sampling chunks' ratio alone.
  for (const int tid : {2, 3}) size[tid] = h.next(tid, 300).size();
  EXPECT_EQ(h.sched().stats().aid_phases, 1);
  EXPECT_DOUBLE_EQ(h.sched().progress_ratios()[1], 3.0);
  EXPECT_DOUBLE_EQ(h.sched().stats().estimated_sf, 3.0);

  // A window of big records alone leaves R as it was, though they ran
  // faster: two more records per big thread, the first with every block
  // since its sampling chunk.
  for (const int tid : {0, 1})
    for (int block = 0; block < 2 * AidDynamicScheduler::kBlocksPerRecord;
         ++block)
      size[tid] = h.next(tid, size[tid] * 10).size();
  EXPECT_EQ(h.sched().stats().aid_phases, 2);
  EXPECT_DOUBLE_EQ(h.sched().progress_ratios()[1], 3.0);
  EXPECT_DOUBLE_EQ(h.sched().stats().estimated_sf, 3.0);
}

// A clock that counts its reads.
class CountingClock final : public TimeSource {
 public:
  [[nodiscard]] Nanos now() const override { return ++reads; }
  mutable Nanos reads = 0;
};

TEST(AidDynamic, UniformTeamReadsNoClockAndRecordsNothing) {
  for (const auto& [platform, nthreads] :
       {std::pair{platform::symmetric(4), 4},
        std::pair{platform::generic_amp(2, 2, 2.0), 2}}) {  // both big
    const platform::TeamLayout layout(platform, nthreads,
                                      platform::Mapping::kBigFirst);
    ASSERT_TRUE(layout.is_uniform());
    constexpr i64 kCount = 1000;
    AidDynamicScheduler sched(kCount, layout, 1, 5, true, /*sharded=*/true);
    CountingClock clock;
    std::vector<int> hits(kCount, 0);
    std::vector<bool> done(static_cast<usize>(nthreads), false);
    for (int live = nthreads; live > 0;) {
      for (int tid = 0; tid < nthreads; ++tid) {
        if (done[static_cast<usize>(tid)]) continue;
        ThreadContext tc{.tid = tid,
                         .core_type = layout.core_type_of(tid),
                         .time = &clock};
        IterRange r;
        if (!sched.next(tc, r)) {
          done[static_cast<usize>(tid)] = true;
          --live;
          continue;
        }
        EXPECT_EQ(r.size(), sched.in_endgame() ? 1 : 5);
        for (i64 i = r.begin; i < r.end; ++i) ++hits[static_cast<usize>(i)];
      }
    }
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), kCount);
    EXPECT_EQ(clock.reads, 0);
    EXPECT_EQ(sched.stats().aid_phases, 0);
    EXPECT_EQ(sched.stats().estimated_sf, 1.0);
  }
}

}  // namespace
}  // namespace aid::sched
