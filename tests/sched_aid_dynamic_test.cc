// AidDynamicScheduler: Fig. 5 state machine — sampling, repeated AID phases
// with the R progress ratio, the smoothing update, and the endgame
// optimization.
#include <gtest/gtest.h>

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
// topology the runtime arms on a uniform team): four threads on a
// symmetric platform, m = 1, M = 5, so the endgame threshold M·N is 20.
class HandDrivenAidDynamic {
 public:
  static constexpr int kThreads = 4;
  static constexpr i64 kEndgameThreshold = 5 * kThreads;

  explicit HandDrivenAidDynamic(i64 count)
      : layout_(platform::symmetric(kThreads), kThreads,
                platform::Mapping::kBigFirst),
        sched_(count, layout_, /*minor_chunk=*/1, /*major_chunk=*/5,
               /*endgame_enabled=*/true, ShardTopology::per_thread(layout_)) {}

  /// One next() by `tid`; the range it was handed (empty: its loop ended).
  IterRange next(int tid) {
    ThreadContext tc{
        .tid = tid, .core_type = 0, .speed = 1.0, .time = &clock_};
    IterRange r;
    if (!sched_.next(tc, r)) return {};
    clock_.advance(100);
    return r;
  }

  AidDynamicScheduler& sched() { return sched_; }

 private:
  ManualTimeSource clock_;
  platform::TeamLayout layout_;
  AidDynamicScheduler sched_;
};

// The endgame test reads the caller's home shard first. A drained home
// shard is no reason to end: the decision is still the pool's total.
TEST(AidDynamic, DrainedHomeShardWithFatForeignShardsStaysOutOfTheEndgame) {
  HandDrivenAidDynamic h(400);  // home shard of each thread: 100 iterations
  // Thread 0 samples, records, and steals m-chunks while the sampling
  // phase is open, until its home shard [0, 100) is empty.
  for (i64 taken = 0; taken < 100; ++taken) {
    const IterRange r = h.next(0);
    ASSERT_EQ(r.size(), 1);
    ASSERT_LE(r.end, 100) << "taken from home";
  }
  // The others sample; thread 3's record closes the phase and enters the
  // next one with its home shard full.
  for (int tid = 1; tid < HandDrivenAidDynamic::kThreads; ++tid)
    ASSERT_EQ(h.next(tid).size(), 1);
  for (int tid = 1; tid < HandDrivenAidDynamic::kThreads; ++tid)
    ASSERT_FALSE(h.next(tid).empty());
  ASSERT_EQ(h.sched().stats().aid_phases, 1);
  ASSERT_GT(h.sched().remaining(),
            10 * HandDrivenAidDynamic::kEndgameThreshold);
  // Thread 0 enters the phase on a drained home shard.
  EXPECT_FALSE(h.next(0).empty());
  EXPECT_FALSE(h.sched().in_endgame());
}

// Thread 3 closes the sampling phase and decides on the endgame in the same
// next(), after three samples and three wait steals by the others and its
// own sample: the pool then holds count - 7 iterations.
bool endgame_at_first_phase(i64 count) {
  HandDrivenAidDynamic h(count);
  for (int tid = 0; tid < HandDrivenAidDynamic::kThreads; ++tid)
    EXPECT_EQ(h.next(tid).size(), 1);
  for (int tid = 0; tid < HandDrivenAidDynamic::kThreads - 1; ++tid)
    EXPECT_EQ(h.next(tid).size(), 1);
  EXPECT_EQ(h.sched().remaining(), count - 7);
  EXPECT_FALSE(h.sched().in_endgame());
  EXPECT_FALSE(h.next(HandDrivenAidDynamic::kThreads - 1).empty());
  EXPECT_EQ(h.sched().stats().aid_phases, 1);
  return h.sched().in_endgame();
}

TEST(AidDynamic, EndgameStartsAtMajorTimesThreadsRemaining) {
  EXPECT_TRUE(endgame_at_first_phase(
      HandDrivenAidDynamic::kEndgameThreshold + 7 - 3));  // 17 left
  EXPECT_TRUE(endgame_at_first_phase(
      HandDrivenAidDynamic::kEndgameThreshold + 7));  // exactly M·N left
  EXPECT_FALSE(endgame_at_first_phase(
      HandDrivenAidDynamic::kEndgameThreshold + 7 + 1));  // M·N + 1 left
}

}  // namespace
}  // namespace aid::sched
