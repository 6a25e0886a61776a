// Pool manager: arbitration policies and partition lease/revoke edge cases.
//
// Covers single-core partitions (serial fast path on a lease),
// revoke-while-idle (an idle app's cores shrink immediately when a
// neighbour registers), interleaved lease/release by several apps
// (partitions always disjoint, the machine always fully distributed),
// exactly-once body execution across repartitionings, and the
// no-oversubscription accounting (one shared pool instead of per-app
// private teams).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <vector>

#include "common/env.h"
#include "common/spin_wait.h"
#include "platform/platform.h"
#include "pool/policy.h"
#include "pool/pool_manager.h"

namespace aid::pool {
namespace {

using platform::TeamLayout;
using sched::ScheduleSpec;

PoolManager::Config test_config() {
  PoolManager::Config c;
  c.emulate_amp = false;  // pure mechanics, no duty-cycle throttling
  return c;
}

/// The core ids an app's current partition occupies.
std::set<int> cores_of(const AppHandle& app) {
  std::set<int> out;
  const TeamLayout layout = app.layout();
  for (int tid = 0; tid < layout.nthreads(); ++tid)
    out.insert(layout.core_of(tid));
  return out;
}

/// Run one loop and assert every canonical iteration executed exactly once.
void run_exactly_once(AppHandle& app, i64 count, const ScheduleSpec& spec) {
  std::vector<std::atomic<int>> hits(static_cast<usize>(count));
  app.run_loop(count, spec, [&](i64 b, i64 e, const rt::WorkerInfo&) {
    for (i64 i = b; i < e; ++i)
      hits[static_cast<usize>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (i64 i = 0; i < count; ++i)
    ASSERT_EQ(hits[static_cast<usize>(i)].load(), 1)
        << spec.display() << " iteration " << i;
}

// --- arbitration policies (pure) -------------------------------------------

TEST(PoolPolicy, EqualShareSplitsEveryTypeEvenly) {
  const auto counts =
      arbitrate({4, 4}, {1.0, 1.0}, Policy::kEqualShare);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], (std::vector<int>{2, 2}));
  EXPECT_EQ(counts[1], (std::vector<int>{2, 2}));
}

TEST(PoolPolicy, EqualShareRotatesRemaindersAcrossTypes) {
  // 3 small + 3 big across two apps: each type has one leftover core, and
  // the rotation hands them to different apps, so totals stay 3/3.
  const auto counts = arbitrate({3, 3}, {1.0, 1.0}, Policy::kEqualShare);
  const int total0 = counts[0][0] + counts[0][1];
  const int total1 = counts[1][0] + counts[1][1];
  EXPECT_EQ(total0, 3);
  EXPECT_EQ(total1, 3);
}

TEST(PoolPolicy, ProportionalFollowsWeights) {
  const auto counts =
      arbitrate({4, 4}, {3.0, 1.0}, Policy::kProportional);
  EXPECT_EQ(counts[0], (std::vector<int>{3, 3}));
  EXPECT_EQ(counts[1], (std::vector<int>{1, 1}));
}

TEST(PoolPolicy, BigCorePriorityPacksBigCoresOntoHeavyApp) {
  // Equal totals (4 each), but the heavy app's four are the big ones.
  const auto counts =
      arbitrate({4, 4}, {1.0, 10.0}, Policy::kBigCorePriority);
  EXPECT_EQ(counts[1], (std::vector<int>{0, 4}));  // heavy: all big
  EXPECT_EQ(counts[0], (std::vector<int>{4, 0}));  // light: all small
}

TEST(PoolPolicy, EveryAppGetsAtLeastOneCore) {
  // A tiny weight must still yield one core.
  const auto counts =
      arbitrate({1, 1}, {1000.0, 0.001}, Policy::kProportional);
  const int total1 = std::accumulate(counts[1].begin(), counts[1].end(), 0);
  EXPECT_GE(total1, 1);
  const int total0 = std::accumulate(counts[0].begin(), counts[0].end(), 0);
  EXPECT_EQ(total0 + total1, 2);
}

TEST(PoolPolicy, ParseNames) {
  Policy p{};
  EXPECT_TRUE(parse_policy("equal", p));
  EXPECT_EQ(p, Policy::kEqualShare);
  EXPECT_TRUE(parse_policy("BIG-PRIORITY", p));
  EXPECT_EQ(p, Policy::kBigCorePriority);
  EXPECT_TRUE(parse_policy("proportional", p));
  EXPECT_EQ(p, Policy::kProportional);
  EXPECT_FALSE(parse_policy("banana", p));
}

TEST(PoolPolicyDeathTest, UnknownEnvPolicyWarnsAndFallsBackToEqualShare) {
  // The process-wide manager reads AID_POOL_POLICY once, at its first use;
  // the threadsafe style re-executes this test alone, so the child process
  // builds that manager here.
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        ::setenv("AID_POOL_POLICY", "banana", 1);
        const Policy policy = PoolManager::instance().policy();
        std::exit(policy == Policy::kEqualShare ? 0 : 1);
      },
      testing::ExitedWithCode(0), "ignoring AID_POOL_POLICY=\"banana\"");
}

// --- lease lifecycle --------------------------------------------------------

TEST(PoolManager, SingleAppLeasesWholeMachine) {
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());
  AppHandle app = mgr.register_app("solo");
  EXPECT_EQ(app.nthreads(), 8);
  EXPECT_EQ(app.allotment().threads_on_big, 4);
  EXPECT_EQ(app.allotment().threads_on_small, 4);
  run_exactly_once(app, 501, ScheduleSpec::dynamic(3));
  run_exactly_once(app, 501, ScheduleSpec::aid_static(1));
}

TEST(PoolManager, WaitBudgetsFollowThePlatformCoreCount) {
  // The shared engine's waits are sized for the whole platform, whatever
  // partition a lease holds (here 4 of 8 cores).
  if (env::get("AID_FORKJOIN_SPIN") || env::get("AID_FORKJOIN_YIELD"))
    GTEST_SKIP() << "wait-budget overrides set in the environment";
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());
  AppHandle a = mgr.register_app("a");
  AppHandle b = mgr.register_app("b");
  EXPECT_EQ(a.nthreads(), 4);
  EXPECT_EQ(a.wait_budgets().spin, default_spin_budget(8));
  EXPECT_EQ(a.wait_budgets().yield, default_yield_budget(8));
}

TEST(PoolManager, SingleCorePartitionRunsSerially) {
  // Two apps on a 1S+1B machine: one core each; loops run on the serial
  // fast path (the lease master participates alone, zero dispatches).
  PoolManager mgr(platform::generic_amp(1, 1, 2.0), test_config());
  AppHandle a = mgr.register_app("a");
  AppHandle b = mgr.register_app("b");
  EXPECT_EQ(a.nthreads(), 1);
  EXPECT_EQ(b.nthreads(), 1);
  // Disjoint single cores covering the machine.
  std::set<int> all;
  for (int c : cores_of(a)) all.insert(c);
  for (int c : cores_of(b)) all.insert(c);
  EXPECT_EQ(all.size(), 2u);
  run_exactly_once(a, 97, ScheduleSpec::static_even());
  run_exactly_once(b, 97, ScheduleSpec::dynamic(5));
  // No worker threads needed at all: both partitions are master-only.
  EXPECT_EQ(mgr.spawned_workers(), 0);
}

TEST(PoolManager, RevokeWhileIdleCommitsImmediately) {
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());
  AppHandle a = mgr.register_app("a");
  EXPECT_EQ(a.nthreads(), 8);

  // `a` is idle (no loop in flight): registering `b` must shrink `a`
  // right away — no loop required for the revoke to land.
  AppHandle b = mgr.register_app("b");
  EXPECT_EQ(a.nthreads(), 4);
  EXPECT_EQ(b.nthreads(), 4);
  EXPECT_EQ(a.allotment().threads_on_big, 2);
  EXPECT_EQ(a.allotment().threads_on_small, 2);

  // And the release grows idle `a` back to the whole machine.
  b.release();
  EXPECT_EQ(a.allotment().threads_on_big, 4);
  EXPECT_EQ(a.allotment().threads_on_small, 4);
}

TEST(PoolManager, InterleavedLeaseAndRelease) {
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());
  const auto expect_disjoint_and_complete = [&](std::vector<AppHandle*> apps) {
    std::set<int> seen;
    int total = 0;
    for (AppHandle* app : apps) {
      for (int c : cores_of(*app)) {
        EXPECT_TRUE(seen.insert(c).second) << "core " << c << " double-leased";
      }
      total += app->nthreads();
    }
    EXPECT_EQ(total, mgr.platform().num_cores());
  };

  AppHandle a = mgr.register_app("a");
  AppHandle b = mgr.register_app("b");
  expect_disjoint_and_complete({&a, &b});
  run_exactly_once(a, 128, ScheduleSpec::dynamic(2));
  run_exactly_once(b, 128, ScheduleSpec::dynamic(2));

  a.release();  // b inherits the whole machine
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.nthreads(), 8);
  run_exactly_once(b, 128, ScheduleSpec::aid_static(1));

  AppHandle c = mgr.register_app("c");
  expect_disjoint_and_complete({&b, &c});
  run_exactly_once(c, 64, ScheduleSpec::static_even());

  b.release();
  EXPECT_EQ(c.nthreads(), 8);
  run_exactly_once(c, 64, ScheduleSpec::dynamic(1));
  c.release();
  EXPECT_EQ(mgr.registered_apps(), 0);
}

TEST(PoolManager, RepartitioningChangesObservedCoreMix) {
  // The acceptance property: repartitioning between loops changes the
  // WorkerInfo core mix an app observes, with every iteration still
  // executed exactly once.
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());
  AppHandle a = mgr.register_app("a");

  // static_even assigns every tid a deterministic range, so each core type
  // in the layout is guaranteed to observe iterations (no wake-up races).
  const auto observed_mix = [&](AppHandle& app) {
    std::vector<std::atomic<int>> by_type(2);
    std::vector<std::atomic<int>> hits(256);
    app.run_loop(256, ScheduleSpec::static_even(),
                 [&](i64 b, i64 e, const rt::WorkerInfo& w) {
                   by_type[static_cast<usize>(w.core_type)].fetch_add(
                       1, std::memory_order_relaxed);
                   for (i64 i = b; i < e; ++i)
                     hits[static_cast<usize>(i)].fetch_add(
                         1, std::memory_order_relaxed);
                 });
    for (usize i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "iteration " << i;
    return std::pair<int, int>(by_type[0].load(), by_type[1].load());
  };

  // Alone: both core types busy, 4+4 layout.
  EXPECT_EQ(a.layout().nb(), 4);
  const auto solo = observed_mix(a);
  EXPECT_GT(solo.first, 0);
  EXPECT_GT(solo.second, 0);

  // A big-hungry neighbour arrives under big-core-priority: `a` (weight 1)
  // is repartitioned onto small cores only — its observed mix loses the
  // big type entirely at the next loop boundary.
  mgr.set_policy(Policy::kBigCorePriority);
  AppHandle b = mgr.register_app("b", /*weight=*/10.0);
  EXPECT_EQ(a.layout().nb(), 0);
  EXPECT_EQ(a.layout().ns(), 4);
  const auto small_only = observed_mix(a);
  EXPECT_GT(small_only.first, 0);
  EXPECT_EQ(small_only.second, 0);
  EXPECT_EQ(b.layout().nb(), 4);

  // Neighbour leaves: `a` gets the big cores back.
  b.release();
  EXPECT_EQ(a.layout().nb(), 4);
  const auto whole = observed_mix(a);
  EXPECT_GT(whole.second, 0);
}

TEST(PoolManager, SharedPoolSpawnsHalfTheThreadsOfPrivateTeams) {
  // Two apps on one 8-core pool: masters participate, so at most 3 workers
  // per 4-core partition are spawned — 6 spawned threads + 2 app threads,
  // versus 2 private Teams spawning 7 workers each (16 threads total with
  // the masters). The shared pool's footprint is <= half.
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());
  AppHandle a = mgr.register_app("a");
  AppHandle b = mgr.register_app("b");
  run_exactly_once(a, 200, ScheduleSpec::dynamic(2));
  run_exactly_once(b, 200, ScheduleSpec::dynamic(2));
  EXPECT_EQ(mgr.spawned_workers(), 6);
  EXPECT_EQ(mgr.total_threads(), 8);
  const int private_teams_total = 2 * mgr.platform().num_cores();
  EXPECT_LE(mgr.total_threads(), private_teams_total / 2);
}

TEST(PoolManager, RegionPinsLayoutAcrossLoops) {
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());
  AppHandle a = mgr.register_app("a");
  const platform::TeamLayout& pinned = a.begin_region();
  EXPECT_EQ(pinned.nthreads(), 8);

  // A neighbour registers mid-region: `a` must keep its pinned 8-thread
  // layout for loops inside the region...
  AppHandle b = mgr.register_app("b");
  run_exactly_once(a, 64, ScheduleSpec::static_even());
  EXPECT_EQ(a.nthreads(), 8);
  a.end_region();
  // ...and adopt the revoke at the region boundary.
  EXPECT_EQ(a.nthreads(), 4);
  run_exactly_once(a, 64, ScheduleSpec::dynamic(2));
  run_exactly_once(b, 64, ScheduleSpec::dynamic(2));
}

TEST(PoolManager, MoveSemanticsAndIdempotentRelease) {
  PoolManager mgr(platform::generic_amp(2, 2, 2.0), test_config());
  AppHandle a = mgr.register_app("a");
  AppHandle moved = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(moved.valid());
  run_exactly_once(moved, 32, ScheduleSpec::dynamic(1));
  moved.release();
  moved.release();  // idempotent
  EXPECT_EQ(mgr.registered_apps(), 0);
}

}  // namespace
}  // namespace aid::pool
