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

ShardTopology two_shard_topo(int nthreads) {
  // Low tids -> shard 1 (the "big" cluster under the BS mapping), high
  // tids -> shard 0: shards shared by several threads each, a layout the
  // pool supports though the runtime arms one shard per thread.
  ShardTopology topo;
  topo.home_of_tid.resize(static_cast<usize>(nthreads));
  topo.capacity.assign(2, 0.0);
  for (int t = 0; t < nthreads; ++t) {
    const int s = t < nthreads / 2 ? 1 : 0;
    topo.home_of_tid[static_cast<usize>(t)] = s;
    topo.capacity[static_cast<usize>(s)] += s == 1 ? 3.0 : 1.0;
  }
  return topo;
}

TEST(ShardedWorkShare, SingleShardFallbackMatchesWorkShare) {
  // A one-shard topology (what one-thread teams and the simulator get)
  // must be bit-for-bit the classic pool: same ranges, same removal
  // counts, same drain behavior.
  WorkShare classic(4);
  ShardedWorkShare sharded(ShardTopology{}, 4);
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
  EXPECT_EQ(sharded.nshards(), 1);
}

TEST(ShardedWorkShare, RejectsTopologyWithoutAValidHomePerThread) {
  // The take path indexes home_of_tid by tid unclamped: the constructor
  // must refuse a home outside [0, nshards) or a missing thread, loudly.
  ShardTopology bad_home = two_shard_topo(4);
  bad_home.home_of_tid[2] = 2;
  EXPECT_DEATH(ShardedWorkShare(bad_home, 4), "home shard out of range");
  EXPECT_DEATH(ShardedWorkShare(two_shard_topo(4), 5), "one home per thread");
}

TEST(ShardedWorkShare, SplitsProportionallyAndTakesStayHome) {
  // 8 threads, shard 1 capacity 12 vs shard 0 capacity 4: shard 1 owns
  // the top 3/4 of the space, and a take never leaves the home shard the
  // topology gives its tid until that shard drains.
  const ShardTopology topo = two_shard_topo(8);
  ShardedWorkShare pool(topo, 8);
  pool.reset(1600);
  EXPECT_EQ(pool.nshards(), 2);
  EXPECT_EQ(pool.remaining_of_shard(0), 400);
  EXPECT_EQ(pool.remaining_of_shard(1), 1200);
  for (int tid = 0; tid < 8; ++tid)
    EXPECT_EQ(pool.home_of(tid), topo.home_of_tid[static_cast<usize>(tid)]);
  const IterRange big = pool.take(16, /*tid=*/0);  // home shard 1
  EXPECT_EQ(big.begin, 400);  // shard 1 owns [400, 1600)
  EXPECT_EQ(pool.remaining_of_shard(1), 1200 - 16);
  const IterRange small = pool.take(16, /*tid=*/7);  // home shard 0
  EXPECT_EQ(small.begin, 0);  // shard 0 owns [0, 400)
  EXPECT_EQ(pool.remaining_of_shard(0), 400 - 16);
  EXPECT_EQ(pool.local_removals(), 2);
  EXPECT_EQ(pool.remote_removals(), 0);
}

TEST(ShardedWorkShare, DrainedHomeBulkMigratesThenStaysLocal) {
  // Thread 7's home shard holds 40 iterations; once they are gone, the
  // first foreign take must move a bulk block home (one migration) and
  // every subsequent take stays home-local until that block drains too.
  ShardTopology topo = two_shard_topo(8);
  ShardedWorkShare pool(topo, 8);
  pool.reset(400, {/*shard0=*/1.0, /*shard1=*/9.0});
  ASSERT_EQ(pool.remaining_of_shard(0), 40);
  IterRange r;
  i64 got = 0;
  while (!(r = pool.take(4, /*tid=*/7)).empty()) got += r.size();
  EXPECT_EQ(got, 400);  // one thread drains everything
  EXPECT_GE(pool.rebalances(), 1);
  EXPECT_GT(pool.rebalanced_iters(), 0);
  // Remote chunk removals happen only for thin victims; the bulk path
  // keeps the overwhelming majority of removals home-local.
  EXPECT_GT(pool.local_removals(), pool.remote_removals());
}

TEST(ShardedWorkShare, OversizedLoopFallsBackToSinglePool) {
  const ShardTopology topo = two_shard_topo(4);
  ShardedWorkShare pool(topo, 4);
  pool.reset(ShardedWorkShare::kPackedCountLimit);  // too big to pack
  EXPECT_EQ(pool.nshards(), 1);
  const IterRange r = pool.take(8, 0);
  EXPECT_EQ(r.begin, 0);
  pool.reset(64);  // and back: small loops re-arm the shards
  EXPECT_EQ(pool.nshards(), 2);
}

// ShardTopology::for_schedule is the one place the runtime picks a pool's
// shard layout: per thread for dynamic and the three AID kinds; nothing to
// shard for static, for the remainder-sized kinds (they hold a plain
// WorkShare) or for a one-thread team.
void expect_per_thread(const ShardTopology& topo,
                       const platform::TeamLayout& layout) {
  const int n = layout.nthreads();
  if (n == 1) {
    EXPECT_TRUE(topo.home_of_tid.empty());
    EXPECT_EQ(topo.nshards(), 1);
    return;
  }
  ASSERT_EQ(topo.nshards(), n);
  for (int tid = 0; tid < n; ++tid) {
    EXPECT_EQ(topo.home_of_tid[static_cast<usize>(tid)], tid);
    EXPECT_DOUBLE_EQ(topo.capacity[static_cast<usize>(tid)],
                     layout.speed_of(tid));
  }
}

TEST(ShardTopology, ForSchedulePicksTheLayoutByKind) {
  const platform::Platform sym = platform::symmetric(4);
  const platform::Platform amp = platform::generic_amp(2, 2, 2.0);
  const platform::TeamLayout layouts[] = {
      {sym, 4, platform::Mapping::kBigFirst},
      {amp, 4, platform::Mapping::kBigFirst},
      {amp, 2, platform::Mapping::kBigFirst},  // both on big cores: uniform
      {amp, 1, platform::Mapping::kBigFirst},
  };
  const ScheduleKind per_thread[] = {
      ScheduleKind::kDynamic, ScheduleKind::kAidStatic,
      ScheduleKind::kAidHybrid, ScheduleKind::kAidDynamic};
  // No pool (static), or libgomp's single work share (the related-work
  // baselines size chunks from the whole loop's remainder).
  const ScheduleKind single[] = {ScheduleKind::kStatic, ScheduleKind::kGuided,
                                 ScheduleKind::kTrapezoid,
                                 ScheduleKind::kWeightedFactoring};
  for (const platform::TeamLayout& layout : layouts) {
    SCOPED_TRACE(layout.describe());
    for (const ScheduleKind kind : single) {
      SCOPED_TRACE(to_string(kind));
      const ShardTopology topo = ShardTopology::for_schedule(kind, layout);
      EXPECT_EQ(topo.nshards(), 1);
      EXPECT_TRUE(topo.home_of_tid.empty());
    }
    for (const ScheduleKind kind : per_thread) {
      SCOPED_TRACE(to_string(kind));
      expect_per_thread(ShardTopology::for_schedule(kind, layout), layout);
    }
  }
  // The layouts above cover uniform teams and an AMP.
  EXPECT_TRUE(layouts[0].is_uniform());
  EXPECT_FALSE(layouts[1].is_uniform());
  EXPECT_TRUE(layouts[2].is_uniform());
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
  // Per-core-type shapes: 2..3 shards shared by 2..8 threads, armed with
  // random skewed splits.
  std::mt19937_64 rng(0xA1DC0FFEEULL);
  i64 migrations = 0;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int nthreads = 2 + static_cast<int>(rng() % 7);       // 2..8
    const i64 count = 1 + static_cast<i64>(rng() % 6000);       // 1..6000
    const int nshards = 2 + static_cast<int>(rng() % 2);        // 2..3

    ShardTopology topo;
    topo.home_of_tid.resize(static_cast<usize>(nthreads));
    topo.capacity.assign(static_cast<usize>(nshards), 0.0);
    for (int t = 0; t < nthreads; ++t) {
      const int s = t % nshards;
      topo.home_of_tid[static_cast<usize>(t)] = s;
      topo.capacity[static_cast<usize>(s)] += 1.0;
    }
    ShardedWorkShare pool(topo, nthreads);
    std::vector<double> split(static_cast<usize>(nshards));
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

  // The runtime's dynamic/AID-static/AID-hybrid shape: one shard per
  // thread, capacity = nominal speed, 8 threads on a 3x AMP. The low-
  // capacity shards drain first and their threads must bulk-migrate.
  const platform::TeamLayout layout(platform::generic_amp(4, 4, 3.0), 8,
                                    platform::Mapping::kBigFirst);
  const ShardTopology per_thread = ShardTopology::per_thread(layout);
  migrations = 0;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("per-thread round " + std::to_string(round));
    const i64 count = 64 + static_cast<i64>(rng() % 6000);
    ShardedWorkShare pool(per_thread, 8);
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
  const ShardTopology topo = ShardTopology::per_thread(layout);
  std::mt19937_64 rng(0x6A1A1ULL);
  i64 migrations = 0;
  for (int round = 0; round < 10; ++round) {
    const i64 count = 64 + static_cast<i64>(rng() % 6000);
    SCOPED_TRACE("count " + std::to_string(count));
    ShardedWorkShare pool(topo, 8, kGrain);
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
