// rt/: the real-thread runtime. These tests use actual concurrency; they
// assert correctness properties (coverage, invariance, termination), never
// absolute timing — the CI host is small and oversubscribed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/spin_wait.h"
#include "rt/runtime.h"
#include "rt/runtime_config.h"
#include "rt/team.h"
#include "rt/throttle.h"

namespace aid::rt {
namespace {

using platform::Mapping;
using sched::ScheduleSpec;

platform::Platform small_amp() { return platform::generic_amp(2, 2, 3.0); }

std::vector<ScheduleSpec> all_specs() {
  return {ScheduleSpec::static_even(),       ScheduleSpec::static_chunked(3),
          ScheduleSpec::dynamic(1),          ScheduleSpec::dynamic(4),
          ScheduleSpec::guided(1),           ScheduleSpec::aid_static(1),
          ScheduleSpec::aid_hybrid(1, 80.0), ScheduleSpec::aid_dynamic(1, 5)};
}

TEST(Team, EveryScheduleCoversEveryIterationExactlyOnce) {
  Team team(small_amp(), 4, Mapping::kBigFirst, /*emulate_amp=*/false);
  for (const auto& spec : all_specs()) {
    constexpr i64 kCount = 5000;
    std::vector<std::atomic<int>> hits(kCount);
    for (auto& h : hits) h.store(0);
    team.run_loop(kCount, spec, [&](i64 b, i64 e, const WorkerInfo&) {
      for (i64 i = b; i < e; ++i) hits[static_cast<usize>(i)].fetch_add(1);
    });
    for (i64 i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[static_cast<usize>(i)].load(), 1)
          << spec.display() << " iteration " << i;
  }
}

TEST(Team, ParallelForMapsUserSpace) {
  Team team(small_amp(), 3, Mapping::kBigFirst, false);
  std::atomic<i64> sum{0};
  // for (i = 10; i < 30; i += 2): values 10,12,...,28 -> sum 190.
  team.parallel_for(10, 30, 2, ScheduleSpec::dynamic(1),
                    [&](i64 i, const WorkerInfo&) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 190);
}

TEST(Team, NegativeStepLoop) {
  Team team(small_amp(), 2, Mapping::kBigFirst, false);
  std::atomic<i64> sum{0};
  // for (i = 10; i > 0; i -= 3): 10, 7, 4, 1 -> 22.
  team.parallel_for(10, 0, -3, ScheduleSpec::static_even(),
                    [&](i64 i, const WorkerInfo&) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 22);
}

TEST(Team, WorkerInfoReflectsLayout) {
  Team team(small_amp(), 4, Mapping::kBigFirst, false);
  std::vector<std::atomic<int>> seen_type(4);
  for (auto& s : seen_type) s.store(-1);
  // Round-robin static chunks of 1 hand every tid iterations, so each
  // tid's WorkerInfo is observed regardless of timing.
  team.run_loop(1000, ScheduleSpec::static_chunked(1),
                [&](i64, i64, const WorkerInfo& w) {
                  seen_type[static_cast<usize>(w.tid)].store(w.core_type);
                });
  for (int tid = 0; tid < 4; ++tid)
    EXPECT_EQ(seen_type[static_cast<usize>(tid)].load(),
              team.layout().core_type_of(tid))
        << tid;
  // BS on 2s2b: tids 0,1 big (type 1).
  EXPECT_EQ(seen_type[0].load(), 1);
  EXPECT_EQ(seen_type[1].load(), 1);
}

TEST(Team, EmptyLoopCompletes) {
  Team team(small_amp(), 4, Mapping::kBigFirst, false);
  bool ran = false;
  team.run_loop(0, ScheduleSpec::aid_static(1),
                [&](i64, i64, const WorkerInfo&) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Team, SingleThreadTeam) {
  Team team(small_amp(), 1, Mapping::kBigFirst, false);
  std::atomic<i64> n{0};
  team.run_loop(100, ScheduleSpec::aid_dynamic(1, 5),
                [&](i64 b, i64 e, const WorkerInfo&) { n.fetch_add(e - b); });
  EXPECT_EQ(n.load(), 100);
}

TEST(Team, WaitBudgetsFollowTheTeamSizeNotThePlatform) {
  // A 4-thread team on the 8-core default platform sizes its waits for 4
  // threads: on a 4-CPU host it keeps the spinning budgets, not the
  // oversubscribed ones an 8-thread team would get.
  if (env::get("AID_FORKJOIN_SPIN") || env::get("AID_FORKJOIN_YIELD"))
    GTEST_SKIP() << "wait-budget overrides set in the environment";
  Team team(platform::odroid_xu4(), 4, Mapping::kBigFirst, false);
  EXPECT_EQ(team.wait_budgets().spin, default_spin_budget(4));
  EXPECT_EQ(team.wait_budgets().yield, default_yield_budget(4));
}

TEST(Team, WaitBudgetOverridesAreReadAtConstruction) {
  const env::ScopedSet spin("AID_FORKJOIN_SPIN", "7");
  const env::ScopedSet yield("AID_FORKJOIN_YIELD", "3");
  Team team(small_amp(), 2, Mapping::kBigFirst, false);
  EXPECT_EQ(team.wait_budgets().spin, 7);
  EXPECT_EQ(team.wait_budgets().yield, 3);
}

TEST(Team, ManyConsecutiveLoopsReuseWorkers) {
  Team team(small_amp(), 4, Mapping::kBigFirst, false);
  std::atomic<i64> total{0};
  for (int l = 0; l < 200; ++l) {
    team.run_loop(64, ScheduleSpec::dynamic(2),
                  [&](i64 b, i64 e, const WorkerInfo&) {
                    total.fetch_add(e - b);
                  });
  }
  EXPECT_EQ(total.load(), 200 * 64);
}

TEST(Team, GuidedChunksFollowTheWholeLoopRemainder) {
  // libgomp's guided on real threads: one work share, so each chunk is
  // max(c, remaining / T) of the WHOLE loop at the moment it is taken —
  // on an AMP too, where a sharded pool would size it by its own shard's
  // remainder instead. Taken in start order from one cursor, the
  // chunks sorted by start therefore follow the formula exactly, whatever
  // the interleaving was.
  Team team(small_amp(), 4, Mapping::kBigFirst, false);  // 2 big + 2 small
  ASSERT_FALSE(team.layout().is_uniform());
  constexpr i64 kCount = 20'000;
  for (const i64 c : {i64{1}, i64{16}, i64{300}}) {
    for (int rep = 0; rep < 5; ++rep) {
      std::mutex mu;
      std::vector<std::pair<i64, i64>> chunks;
      team.run_loop(kCount, ScheduleSpec::guided(c),
                    [&](i64 b, i64 e, const WorkerInfo&) {
                      const std::scoped_lock lock(mu);
                      chunks.emplace_back(b, e);
                    });
      std::sort(chunks.begin(), chunks.end());
      i64 next = 0;
      for (const auto& [b, e] : chunks) {
        ASSERT_EQ(b, next) << "guided(" << c << ") chunks must tile the loop";
        const i64 rem = kCount - b;
        EXPECT_EQ(e - b, std::min(rem, std::max(c, rem / 4)))
            << "guided(" << c << ") chunk at " << b;
        next = e;
      }
      EXPECT_EQ(next, kCount);
    }
  }
}

TEST(Team, LastLoopStatsExposed) {
  Team team(small_amp(), 4, Mapping::kBigFirst, false);
  team.run_loop(500, ScheduleSpec::dynamic(1),
                [](i64, i64, const WorkerInfo&) {});
  EXPECT_GE(team.last_loop_stats().pool_removals, 500);
}

TEST(Team, AidSamplingEstimatesThrottledAsymmetry) {
  // With duty-cycle emulation on, AID's sampling should observe SF > 1 for
  // a compute-heavy body. The CI host is tiny and oversubscribed, so a
  // single sample can be inverted by preemption — take the best of several
  // attempts and only require that asymmetry was observable at least once.
  // The loop must be long enough to outlive the host's thread-wakeup
  // latency: on a one-CPU box the master can otherwise drain the whole
  // pool before the small-core workers ever run, leaving them nothing to
  // sample (all-zero samples degenerate to SF == 1).
  Team team(platform::generic_amp(2, 2, 3.0), 4, Mapping::kBigFirst,
            /*emulate_amp=*/true);
  double best_sf = 0.0;
  for (int attempt = 0; attempt < 8 && best_sf <= 1.2; ++attempt) {
    team.run_loop(12000, ScheduleSpec::aid_static(8),
                  [](i64 b, i64 e, const WorkerInfo&) {
                    for (i64 i = b; i < e; ++i) spin_work(400);
                  });
    best_sf = std::max(best_sf, team.last_loop_stats().estimated_sf);
  }
  EXPECT_GT(best_sf, 1.2);
  // No meaningful upper bound: preemption on the oversubscribed CI host can
  // stretch a single small-core sample arbitrarily.
}

TEST(Throttle, DisabledForFastestCores) {
  const Throttle t(1.0, true);
  EXPECT_FALSE(t.enabled());
  const Throttle t2(2.0, false);
  EXPECT_FALSE(t2.enabled());
  const Throttle t3(2.0, true);
  EXPECT_TRUE(t3.enabled());
}

TEST(RuntimeConfig, ReadsEnvironment) {
  env::ScopedSet sched_guard("AID_SCHEDULE", "aid-dynamic,2,10");
  env::ScopedSet threads_guard("AID_NUM_THREADS", "3");
  env::ScopedSet affinity_guard("AID_AMP_AFFINITY", "1");
  const auto cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.schedule.kind, sched::ScheduleKind::kAidDynamic);
  EXPECT_EQ(cfg.schedule.chunk, 2);
  EXPECT_EQ(cfg.schedule.major_chunk, 10);
  EXPECT_EQ(cfg.num_threads, 3);
  EXPECT_EQ(cfg.mapping, Mapping::kBigFirst)
      << "AID_AMP_AFFINITY implies the BS convention (Sec. 4.3)";
}

TEST(RuntimeConfig, BadScheduleFallsBackToStatic) {
  env::ScopedSet guard("AID_SCHEDULE", "wibble,9");
  const auto cfg = RuntimeConfig::from_env();
  EXPECT_EQ(cfg.schedule.kind, sched::ScheduleKind::kStatic);
}

TEST(RuntimeConfig, TeamLargerThanThePlatformFallsBackToAllCores) {
  env::reset_warnings();
  const env::ScopedSet threads_guard("AID_NUM_THREADS", "16");
  RuntimeConfig cfg = RuntimeConfig::from_env();
  cfg.use_pool = false;  // under AID_POOL=1 the arbiter sizes the team
  cfg.emulate_amp = false;
  testing::internal::CaptureStderr();
  const Runtime runtime(small_amp(), cfg);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(runtime.nthreads(), small_amp().num_cores());
  EXPECT_NE(err.find("ignoring AID_NUM_THREADS=\"16\""), std::string::npos)
      << err;
  env::reset_warnings();
}

TEST(RuntimeConfig, MalformedPlatformWarnsAndFallsBackToPlatformA) {
  env::reset_warnings();
  const env::ScopedSet guard("AID_PLATFORM", "generic:2,2");
  testing::internal::CaptureStderr();
  const platform::Platform p = platform_from_env();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(p.name(), platform::odroid_xu4().name());
  EXPECT_NE(err.find("ignoring AID_PLATFORM=\"generic:2,2\""),
            std::string::npos)
      << err;
  env::reset_warnings();
}

TEST(RuntimeConfig, NonPositivePoolWeightWarnsAndFallsBackToOne) {
  env::reset_warnings();
  const env::ScopedSet guard("AID_POOL_WEIGHT", "0");
  RuntimeConfig cfg = RuntimeConfig::from_env();
  cfg.use_pool = true;
  testing::internal::CaptureStderr();
  const Runtime runtime(platform_from_env(), cfg);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(runtime.uses_pool());
  EXPECT_NE(err.find("ignoring AID_POOL_WEIGHT=\"0\""), std::string::npos)
      << err;
  env::reset_warnings();
}

TEST(RuntimeConfig, DescribeMentionsKeyFields) {
  const RuntimeConfig cfg;
  const std::string d = cfg.describe();
  EXPECT_NE(d.find("schedule=static"), std::string::npos);
  EXPECT_NE(d.find("mapping=SB"), std::string::npos);
}

TEST(IsolatedRuntime, RunsLoopsWithEnvSchedule) {
  RuntimeConfig cfg;
  cfg.schedule = ScheduleSpec::aid_static(1);
  cfg.num_threads = 4;
  cfg.mapping = Mapping::kBigFirst;
  cfg.emulate_amp = false;
  Runtime runtime(small_amp(), cfg);
  std::atomic<i64> sum{0};
  runtime.team().parallel_for(0, 100, 1, runtime.default_schedule(),
                              [&](i64 i, const WorkerInfo&) {
                                sum.fetch_add(i);
                              });
  EXPECT_EQ(sum.load(), 4950);
}

}  // namespace
}  // namespace aid::rt
