// Property-based sweeps over every schedule kind: the invariants that must
// hold for ANY (schedule, team, loop size, cost shape) combination.
//
//  P1  exactly-once coverage: every canonical iteration is executed once
//      (enforced by LoopSimulator's internal check plus explicit bitmap).
//  P2  ranges are within bounds and non-empty.
//  P3  no two handed-out ranges overlap.
//  P4  determinism: the same configuration replays bit-identically.
#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "common/time_source.h"
#include "sched/sharded_work_share.h"
#include "test_util.h"

namespace aid::sched {
namespace {

struct Case {
  const char* label;
  ScheduleSpec spec;
};

std::vector<Case> all_schedules() {
  return {
      {"static", ScheduleSpec::static_even()},
      {"static4", ScheduleSpec::static_chunked(4)},
      {"dynamic1", ScheduleSpec::dynamic(1)},
      {"dynamic7", ScheduleSpec::dynamic(7)},
      {"guided", ScheduleSpec::guided(1)},
      {"aid-static", ScheduleSpec::aid_static(1)},
      {"aid-static3", ScheduleSpec::aid_static(3)},
      {"aid-static-offline", ScheduleSpec::aid_static_offline(2.5)},
      {"aid-hybrid80", ScheduleSpec::aid_hybrid(1, 80.0)},
      {"aid-hybrid50", ScheduleSpec::aid_hybrid(2, 50.0)},
      {"aid-dynamic", ScheduleSpec::aid_dynamic(1, 5)},
      {"aid-dynamic2-8", ScheduleSpec::aid_dynamic(2, 8)},
      {"aid-dynamic-noend", ScheduleSpec::aid_dynamic_no_endgame(1, 8)},
      {"trapezoid", ScheduleSpec::trapezoid()},
      {"wfactoring", ScheduleSpec::weighted_factoring()},
  };
}

class ScheduleProperty
    : public ::testing::TestWithParam<std::tuple<int, int, i64, int>> {
  // (schedule index, nthreads, iterations, cost shape id)
};

TEST_P(ScheduleProperty, CoverageBoundsOverlapDeterminism) {
  const auto [spec_idx, nthreads, count, shape] = GetParam();
  const Case c = all_schedules()[static_cast<usize>(spec_idx)];

  const auto p = test::amp_4s4b(3.0);
  const platform::TeamLayout layout(p, nthreads, platform::Mapping::kBigFirst);

  std::shared_ptr<const sim::CostModel> cost;
  const std::vector<double> sf{1.0, 3.0};
  switch (shape) {
    case 0:
      cost = std::make_shared<sim::UniformCostModel>(500.0, sf);
      break;
    case 1:
      cost = std::make_shared<sim::AffineCostModel>(200.0, 1.5, count, sf);
      break;
    default: {
      std::vector<double> table(static_cast<usize>(count));
      for (i64 i = 0; i < count; ++i)
        table[static_cast<usize>(i)] =
            100.0 + static_cast<double>((i * 7919) % 1000);
      cost = std::make_shared<sim::TableCostModel>(std::move(table), sf);
    }
  }

  const auto r1 = test::drive(c.spec, count, layout, *cost);

  // P1-P3: coverage bitmap from the recorded ranges.
  std::vector<u8> seen(static_cast<usize>(count), 0);
  for (int tid = 0; tid < nthreads; ++tid) {
    for (const auto& range : r1.ranges[static_cast<usize>(tid)]) {
      ASSERT_FALSE(range.empty()) << c.label << ": empty range handed out";
      ASSERT_GE(range.begin, 0) << c.label;
      ASSERT_LE(range.end, count) << c.label;
      for (i64 i = range.begin; i < range.end; ++i) {
        ASSERT_EQ(seen[static_cast<usize>(i)], 0)
            << c.label << ": iteration " << i << " executed twice";
        seen[static_cast<usize>(i)] = 1;
      }
    }
  }
  for (i64 i = 0; i < count; ++i)
    ASSERT_EQ(seen[static_cast<usize>(i)], 1)
        << c.label << ": iteration " << i << " never executed";

  // P4: determinism.
  const auto r2 = test::drive(c.spec, count, layout, *cost);
  EXPECT_EQ(r1.sim.completion_ns, r2.sim.completion_ns) << c.label;
  EXPECT_EQ(r1.sim.iterations, r2.sim.iterations) << c.label;
}

std::string property_case_name(
    const ::testing::TestParamInfo<std::tuple<int, int, i64, int>>& info) {
  std::string label = all_schedules()[static_cast<usize>(
                          std::get<0>(info.param))].label;
  for (char& c : label)
    if (c == '-') c = '_';
  return label + "_t" + std::to_string(std::get<1>(info.param)) + "_n" +
         std::to_string(std::get<2>(info.param)) + "_s" +
         std::to_string(std::get<3>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, ScheduleProperty,
    ::testing::Combine(::testing::Range(0, 15),         // schedule
                       ::testing::Values(1, 2, 5, 8),   // nthreads
                       ::testing::Values<i64>(0, 1, 13, 257, 2048),  // count
                       ::testing::Values(0, 1, 2)),     // cost shape
    property_case_name);

class MappingProperty : public ::testing::TestWithParam<int> {};

TEST_P(MappingProperty, AidWorksUnderBothMappings) {
  // AID assumes BS, but must remain correct (cover everything) under SB
  // too — it just distributes according to the observed per-tid speeds.
  const int spec_idx = GetParam();
  const Case c = all_schedules()[static_cast<usize>(spec_idx)];
  const auto p = test::amp_2s2b(2.0);
  for (const auto mapping :
       {platform::Mapping::kSmallFirst, platform::Mapping::kBigFirst}) {
    const platform::TeamLayout layout(p, 4, mapping);
    const auto r = test::drive(c.spec, 500, layout,
                               *test::uniform_cost(400, 2.0));
    EXPECT_EQ(r.sim.total_iterations(), 500)
        << c.label << " under " << platform::to_string(mapping);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, MappingProperty,
                         ::testing::Range(0, 15));

TEST(ScheduleProperty, LabelsAreUniqueAndParsable) {
  // The display forms of the factory specs round-trip through the parser
  // (except offline-SF, which is an internal variant).
  for (const auto& c : all_schedules()) {
    if (c.spec.offline_sf || !c.spec.aid_endgame) continue;
    if (c.spec.kind == ScheduleKind::kTrapezoid) continue;  // 0,0 defaults
    const auto parsed = parse_schedule(c.spec.display().substr(
        0, c.spec.display().find(" (")));
    ASSERT_TRUE(parsed.has_value()) << c.spec.display();
    EXPECT_EQ(parsed->kind, c.spec.kind);
  }
}

// ---------------------------------------------------------------------------
// ShardedWorkShare properties: the sharded pool must deliver every
// iteration exactly once no matter how takes, adaptive takes, endgame
// steals and bulk migrations interleave (src/sched/README.md documents the
// migration protocol these tests hammer).

// 4 threads bound big-first on a 2+2 AMP with SF 3: shards 0 and 1 (the big
// threads) have capacity 3, shards 2 and 3 capacity 1.
platform::TeamLayout amp_2b2s() {
  return {platform::generic_amp(2, 2, 3.0), 4, platform::Mapping::kBigFirst};
}

TEST(ShardedWorkShare, SingleShardFallbackMatchesWorkShare) {
  // An unsharded pool (what the simulator gets) must be bit-for-bit the
  // classic pool: same ranges, same removal counts, same drain behavior.
  WorkShare classic(4);
  ShardedWorkShare sharded(amp_2b2s(), /*sharded=*/false);
  classic.reset(103);
  sharded.reset(103);
  for (int i = 0;; ++i) {
    const int tid = i % 4;
    const IterRange a = classic.take(7, tid);
    const IterRange b = sharded.take(7, tid);
    ASSERT_EQ(a, b) << "take " << i;
    if (a.empty()) break;
  }
  EXPECT_EQ(classic.removals(), sharded.removals());
  EXPECT_EQ(sharded.removals(), sharded.local_removals());
  EXPECT_EQ(sharded.remote_removals(), 0);
}

TEST(ShardedWorkShare, SplitsProportionallyAndTakesStayHome) {
  // Capacities 3:3:1:1 over 1600 iterations: shard s is tid s, and a take
  // never leaves the caller's shard until that shard drains.
  ShardedWorkShare pool(amp_2b2s(), /*sharded=*/true);
  pool.reset(1600);
  EXPECT_EQ(pool.remaining_of_shard(0), 600);
  EXPECT_EQ(pool.remaining_of_shard(1), 600);
  EXPECT_EQ(pool.remaining_of_shard(2), 200);
  EXPECT_EQ(pool.remaining_of_shard(3), 200);
  const IterRange big = pool.take(16, /*tid=*/1);
  EXPECT_EQ(big.begin, 600);  // shard 1 owns [600, 1200)
  EXPECT_EQ(pool.remaining_of_shard(1), 600 - 16);
  const IterRange small = pool.take(16, /*tid=*/3);
  EXPECT_EQ(small.begin, 1400);  // shard 3 owns [1400, 1600)
  EXPECT_EQ(pool.remaining_of_shard(3), 200 - 16);
  EXPECT_EQ(pool.remaining_of_shard(0), 600);
  EXPECT_EQ(pool.local_removals(), 2);
  EXPECT_EQ(pool.remote_removals(), 0);
}

TEST(ShardedWorkShare, DrainedHomeBulkMigratesThenStaysLocal) {
  // Thread 0's shard holds 100 iterations; once they are gone, a foreign
  // take must move a bulk block home (one migration) and the takes after
  // it stay home-local until that block drains too.
  ShardedWorkShare pool(amp_2b2s(), /*sharded=*/true);
  pool.reset(2800, {1.0, 9.0, 9.0, 9.0});
  ASSERT_EQ(pool.remaining_of_shard(0), 100);
  IterRange r;
  i64 got = 0;
  while (!(r = pool.take(4, /*tid=*/0)).empty()) got += r.size();
  EXPECT_EQ(got, 2800);  // one thread drains everything
  EXPECT_GE(pool.rebalances(), 3);  // at least one block from each peer
  // Remote chunk removals happen only for thin victims; the bulk path
  // keeps the overwhelming majority of removals home-local.
  EXPECT_GT(pool.local_removals(), 10 * pool.remote_removals());
}

TEST(ShardedWorkShare, OversizedLoopFallsBackToSinglePool) {
  // Sharded, tid 1's first take starts at its own shard; from the single
  // pool it gets the loop's first chunk.
  ShardedWorkShare pool(amp_2b2s(), /*sharded=*/true);
  pool.reset(ShardedWorkShare::kPackedCountLimit);  // too big to pack
  EXPECT_EQ(pool.take(8, /*tid=*/1).begin, 0);
  pool.reset(64);  // and back: small loops re-arm the shards
  EXPECT_EQ(pool.take(8, /*tid=*/1).begin, 24);  // shards 24:24:8:8
}

// make_sharded_scheduler shards the pool of the kinds whose takes the
// caller sizes — dynamic and the three AID kinds — one shard per thread.
// Static has no pool, and guided, trapezoid and weighted factoring hold one
// work share. So when tid 0 alone drains a loop, it must steal or
// bulk-migrate from its peers' shards under the first four kinds, and
// never does under the others or on a one-thread team.
TEST(MakeShardedScheduler, ShardsOnlyTheCallerSizedKinds) {
  const platform::Platform sym = platform::symmetric(4);
  const platform::Platform amp = platform::generic_amp(2, 2, 2.0);
  const ScheduleSpec per_thread[] = {
      ScheduleSpec::dynamic(1), ScheduleSpec::aid_static(1),
      ScheduleSpec::aid_hybrid(1, 80.0), ScheduleSpec::aid_dynamic(1, 5)};
  const ScheduleSpec single[] = {
      ScheduleSpec::static_even(), ScheduleSpec::guided(1),
      ScheduleSpec::trapezoid(), ScheduleSpec::weighted_factoring()};
  ManualTimeSource clock;
  const auto cross_shard_ops = [&](const ScheduleSpec& spec,
                                   const platform::TeamLayout& layout) {
    SCOPED_TRACE(spec.display());
    auto sched = make_sharded_scheduler(spec, 4096, layout);
    ThreadContext tc{.tid = 0,
                     .core_type = layout.core_type_of(0),
                     .speed = layout.speed_of(0),
                     .time = &clock};
    IterRange r;
    while (sched->next(tc, r)) clock.advance(100);
    const SchedulerStats s = sched->stats();
    return s.steal_removals + s.shard_rebalances;
  };
  for (const platform::TeamLayout& layout :
       {platform::TeamLayout(sym, 4, platform::Mapping::kBigFirst),
        platform::TeamLayout(amp, 4, platform::Mapping::kBigFirst)}) {
    SCOPED_TRACE(layout.describe());
    for (const ScheduleSpec& spec : per_thread)
      EXPECT_GT(cross_shard_ops(spec, layout), 0);
    for (const ScheduleSpec& spec : single)
      EXPECT_EQ(cross_shard_ops(spec, layout), 0);
  }
  const platform::TeamLayout one(amp, 1, platform::Mapping::kBigFirst);
  for (const ScheduleSpec& spec : per_thread)
    EXPECT_EQ(cross_shard_ops(spec, one), 0);
}

// The randomized concurrent harness: real threads drain one pool with
// randomly sized takes until every take comes back empty, so the steal
// path's bulk migrations race the takes. Returns each thread's ranges
// after checking that every iteration was delivered exactly once and
// that every range was one accounted removal.
template <typename TakeFn>
std::vector<std::vector<IterRange>> drain_exactly_once(ShardedWorkShare& pool,
                                                       int nthreads,
                                                       i64 count, u64 seed,
                                                       TakeFn take) {
  std::vector<std::vector<IterRange>> taken(static_cast<usize>(nthreads));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<usize>(nthreads));
  std::mt19937_64 seeds(seed);
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t, thread_seed = seeds()] {
      std::mt19937_64 local(thread_seed);
      auto& log = taken[static_cast<usize>(t)];
      for (;;) {
        const IterRange r = take(t, local);
        if (r.empty()) return;  // every shard looked drained
        log.push_back(r);
      }
    });
  }
  for (auto& th : threads) th.join();

  std::vector<u8> seen(static_cast<usize>(count), 0);
  i64 successes = 0;
  for (const auto& log : taken) {
    successes += static_cast<i64>(log.size());
    for (const auto& r : log) {
      EXPECT_FALSE(r.empty());
      if (r.begin < 0 || r.end > count) {
        ADD_FAILURE() << "[" << r.begin << ", " << r.end << ") out of bounds";
        continue;
      }
      for (i64 i = r.begin; i < r.end; ++i) {
        EXPECT_EQ(seen[static_cast<usize>(i)], 0)
            << "iteration " << i << " delivered twice";
        seen[static_cast<usize>(i)] = 1;
      }
    }
  }
  for (i64 i = 0; i < count; ++i)
    EXPECT_EQ(seen[static_cast<usize>(i)], 1)
        << "iteration " << i << " never delivered";
  for (int t = 0; t < nthreads; ++t)
    EXPECT_EQ(pool.removals_of(t),
              static_cast<i64>(taken[static_cast<usize>(t)].size()))
        << "tid " << t;
  EXPECT_EQ(pool.removals(), successes);
  EXPECT_EQ(pool.local_removals() + pool.remote_removals(), successes);
  return taken;
}

IterRange random_take(ShardedWorkShare& pool, int tid,
                      std::mt19937_64& local) {
  return pool.take(1 + static_cast<i64>(local() % 8), tid);
}

TEST(ShardedWorkShareStress, ExactlyOnceUnderSteals) {
  // Teams of 2..8 threads, one shard each, armed with random skewed
  // splits: the light shards drain first, and their threads cut the heavy
  // ones, at times two thieves the same victim at once.
  const platform::Platform amp = platform::generic_amp(4, 4, 3.0);
  std::mt19937_64 rng(0xA1DC0FFEEULL);
  i64 migrations = 0;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int nthreads = 2 + static_cast<int>(rng() % 7);       // 2..8
    const i64 count = 1 + static_cast<i64>(rng() % 6000);       // 1..6000

    ShardedWorkShare pool(
        platform::TeamLayout(amp, nthreads, platform::Mapping::kBigFirst),
        /*sharded=*/true);
    std::vector<double> split(static_cast<usize>(nthreads));
    for (auto& w : split) w = 1.0 + static_cast<double>(rng() % 8);
    pool.reset(count, split);
    drain_exactly_once(pool, nthreads, count, rng(),
                       [&pool](int t, std::mt19937_64& local) {
                         return random_take(pool, t, local);
                       });
    migrations += pool.rebalances();
  }
  // The skewed splits drain some home shards early: bulk migrations must
  // actually have raced the takes, or this harness checks only takes.
  EXPECT_GT(migrations, 0);

  // The runtime's arming: capacity = nominal speed, 8 threads on a 3x
  // AMP. The low-capacity shards drain first and their threads must
  // bulk-migrate.
  const platform::TeamLayout layout(amp, 8, platform::Mapping::kBigFirst);
  migrations = 0;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("per-thread round " + std::to_string(round));
    const i64 count = 64 + static_cast<i64>(rng() % 6000);
    ShardedWorkShare pool(layout, /*sharded=*/true);
    pool.reset(count);
    drain_exactly_once(pool, 8, count, rng(),
                       [&pool](int t, std::mt19937_64& local) {
                         return random_take(pool, t, local);
                       });
    migrations += pool.rebalances();
  }
  EXPECT_GT(migrations, 0);
}

TEST(ShardedWorkShareStress, GrainKeepsChunksWholeUnderSteals) {
  // dynamic(4)'s pool: shard boundaries and migration cuts sit on
  // multiples of the grain, so every 4-iteration take comes out whole
  // except the one holding the loop's last iteration — including takes
  // from migrated blocks and chunk steals.
  constexpr i64 kGrain = 4;
  const platform::TeamLayout layout(platform::generic_amp(4, 4, 3.0), 8,
                                    platform::Mapping::kBigFirst);
  std::mt19937_64 rng(0x6A1A1ULL);
  i64 migrations = 0;
  for (int round = 0; round < 10; ++round) {
    const i64 count = 64 + static_cast<i64>(rng() % 6000);
    SCOPED_TRACE("count " + std::to_string(count));
    ShardedWorkShare pool(layout, /*sharded=*/true, kGrain);
    pool.reset(count);
    const auto taken = drain_exactly_once(
        pool, 8, count, rng(),
        [&pool](int t, std::mt19937_64&) { return pool.take(kGrain, t); });
    i64 removals = 0;
    for (const auto& log : taken) {
      removals += static_cast<i64>(log.size());
      for (const IterRange& r : log) {
        EXPECT_EQ(r.begin % kGrain, 0) << "[" << r.begin << ", " << r.end;
        if (r.end != count) {
          EXPECT_EQ(r.size(), kGrain) << "[" << r.begin << ", " << r.end;
        }
      }
    }
    EXPECT_EQ(removals, (count + kGrain - 1) / kGrain);
    migrations += pool.rebalances();
  }
  EXPECT_GT(migrations, 0);
}

}  // namespace
}  // namespace aid::sched
