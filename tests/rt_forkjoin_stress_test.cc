// Fork/join stress: many back-to-back run_loop calls across schedulers and
// thread counts on the lock-free dispatch path (rt/team.cc).
//
// The properties under stress:
//  * exactly-once execution — every canonical iteration of every loop runs
//    exactly once, for every scheduler, across repeated dispatches on the
//    same persistent worker team (generation-counter reuse, barrier reuse);
//  * pool_removals counts only *successful* takes — for plain dynamic the
//    count is exactly ceil(NI / chunk) on every layout: the pool's grain
//    is the chunk, so shard seams and bulk-migrated blocks never clamp a
//    take short, and only the chunk holding the last iteration may be
//    smaller. For every pool the count can never exceed NI (each success
//    hands out >= 1 iteration), no matter how often drained probes hammer
//    the endgame.
//
// Pool layouts covered (sched::make_sharded_scheduler picks them by kind):
//  * BackToBackLoopsCoverExactlyOnce binds 1, 2, 4 and 8 big-first threads
//    on a 4+4 AMP. At 2 and 4 threads the team sits on the big cores only,
//    so it is uniform; at 8 threads it spans both core types. On every
//    team of two or more threads, dynamic, aid-static, aid-hybrid and
//    aid-dynamic run one shard per thread. Guided, trapezoid and weighted
//    factoring hold a plain WorkShare at every thread count, and one
//    thread always runs the single pool.
//  * DynamicRemovalCountIsExactOnEveryTopology runs dynamic on 8 per-thread
//    shards, on a symmetric platform and on the AMP.
//  * AidDynamicRecomputesRaceWithRecords runs aid-dynamic on a 2+2 AMP,
//    where every thread records its blocks and whoever makes the N-th
//    record recomputes R behind a try-flag.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "platform/platform.h"
#include "rt/team.h"

namespace aid::rt {
namespace {

using platform::Mapping;
using sched::ScheduleSpec;

struct SpecCase {
  ScheduleSpec spec;
  bool uses_pool = true;  // false: compiled-away static distribution
};

std::vector<SpecCase> stress_specs() {
  return {
      {ScheduleSpec::static_even(), false},
      {ScheduleSpec::static_chunked(3), false},
      {ScheduleSpec::dynamic(1)},
      {ScheduleSpec::dynamic(7)},
      {ScheduleSpec::guided(2)},
      {ScheduleSpec::trapezoid()},
      {ScheduleSpec::weighted_factoring()},
      {ScheduleSpec::aid_static(2)},
      {ScheduleSpec::aid_static_offline(3.0)},
      {ScheduleSpec::aid_hybrid(2, 70.0)},
      {ScheduleSpec::aid_dynamic(1, 5)},
      {ScheduleSpec::aid_dynamic_no_endgame(2, 6)},
  };
}

TEST(ForkJoinStress, BackToBackLoopsCoverExactlyOnce) {
  constexpr i64 kCount = 501;  // odd: exercises uneven splits
  constexpr int kLoops = 60;
  for (const int nthreads : {1, 2, 4, 8}) {
    Team team(platform::generic_amp(4, 4, 3.0), nthreads, Mapping::kBigFirst,
              /*emulate_amp=*/false);
    for (const auto& c : stress_specs()) {
      std::vector<std::atomic<u16>> hits(kCount);
      for (int l = 0; l < kLoops; ++l) {
        for (auto& h : hits) h.store(0, std::memory_order_relaxed);
        team.run_loop(kCount, c.spec, [&](i64 b, i64 e, const WorkerInfo&) {
          for (i64 i = b; i < e; ++i)
            hits[static_cast<usize>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
        });
        for (i64 i = 0; i < kCount; ++i)
          ASSERT_EQ(hits[static_cast<usize>(i)].load(), 1)
              << c.spec.display() << " nthreads=" << nthreads << " loop=" << l
              << " iteration=" << i;
      }
    }
  }
}

TEST(ForkJoinStress, DynamicRemovalCountIsExactOnEveryTopology) {
  // dynamic(c) hands out whole chunks of c iterations except the one
  // holding the loop's last iteration (OpenMP), so with removals counted
  // only on success it performs exactly ceil(NI / c) — on a symmetric
  // team and on an AMP alike (8 per-thread shards each): drained-pool
  // probes by late workers add zero, and shard seams and migrated blocks
  // never split a chunk.
  for (const auto& plat :
       {platform::symmetric(8), platform::generic_amp(4, 4, 3.0)}) {
    Team team(plat, 8, Mapping::kBigFirst, /*emulate_amp=*/false);
    for (const i64 chunk : {i64{1}, i64{4}, i64{13}}) {
      for (const i64 count : {i64{1}, i64{13}, i64{100}, i64{500},
                              i64{1000}, i64{5000}}) {
        for (int l = 0; l < 10; ++l) {
          std::atomic<i64> short_chunks{0};
          std::atomic<i64> bad_begin{-1};
          team.run_loop(count, ScheduleSpec::dynamic(chunk),
                        [&](i64 b, i64 e, const WorkerInfo&) {
                          if (e - b != chunk && e != count) {
                            short_chunks.fetch_add(1);
                            bad_begin.store(b);
                          }
                        });
          EXPECT_EQ(short_chunks.load(), 0)
              << plat.name() << " chunk=" << chunk << " count=" << count
              << ": a mid-loop chunk starting at " << bad_begin.load()
              << " was not " << chunk << " iterations";
          EXPECT_EQ(team.last_loop_stats().pool_removals,
                    (count + chunk - 1) / chunk)
              << plat.name() << " chunk=" << chunk << " count=" << count;
        }
      }
    }
  }
}

TEST(ForkJoinStress, AidDynamicRecomputesRaceWithRecords) {
  // Many short aid-dynamic constructs on a 2+2 AMP: records and recomputes
  // run concurrently, and a recorder that finds the try-flag taken skips.
  // Each thread's second chunk waits until all four threads hold theirs,
  // so every thread has recorded its sampling chunk and the first
  // recompute is done. The team binds its threads, since unbound ones were
  // seen to share one CPU on a 4-CPU guest. Each construct covers its
  // iterations exactly once, recomputes R and reports a finite, positive
  // SF. The team runs on its own master thread, so the binding ends with
  // the test.
  constexpr i64 kCount = 2000;
  constexpr int kThreads = 4;
  constexpr int kLoops = 300;
  std::jthread([&] {
    Team team(platform::generic_amp(2, 2, 2.0), kThreads, Mapping::kBigFirst,
              /*emulate_amp=*/false, /*bind_threads=*/true);
    std::vector<std::atomic<u16>> hits(kCount);
    for (int l = 0; l < kLoops; ++l) {
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      std::array<std::atomic<int>, kThreads> chunks_of{};
      std::atomic<int> sampled{0};
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      team.run_loop(
          kCount, ScheduleSpec::aid_dynamic(1, 5),
          [&](i64 b, i64 e, const WorkerInfo& w) {
            if (chunks_of[static_cast<usize>(w.tid)].fetch_add(1) == 1) {
              sampled.fetch_add(1);
              while (sampled.load() < kThreads &&
                     std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            }
            for (i64 i = b; i < e; ++i)
              hits[static_cast<usize>(i)].fetch_add(
                  1, std::memory_order_relaxed);
          });
      ASSERT_EQ(sampled.load(), kThreads) << "loop=" << l;
      for (i64 i = 0; i < kCount; ++i)
        ASSERT_EQ(hits[static_cast<usize>(i)].load(), 1)
            << "loop=" << l << " iteration=" << i;
      const sched::SchedulerStats st = team.last_loop_stats();
      ASSERT_GT(st.aid_phases, 0) << "loop=" << l;
      ASSERT_TRUE(std::isfinite(st.estimated_sf)) << "loop=" << l;
      ASSERT_GT(st.estimated_sf, 0.0) << "loop=" << l;
    }
  }).join();
}

TEST(ForkJoinStress, DynamicRemovalCountIsTightUnderSharding) {
  // The sharded pool's accounting: the count is exact, and every removal
  // is either home-local or a steal.
  Team team(platform::generic_amp(4, 4, 3.0), 8, Mapping::kBigFirst,
            /*emulate_amp=*/false);
  for (const i64 chunk : {i64{1}, i64{4}, i64{13}}) {
    for (const i64 count : {i64{1}, i64{13}, i64{500}, i64{5000}}) {
      for (int l = 0; l < 10; ++l) {
        team.run_loop(count, ScheduleSpec::dynamic(chunk),
                      [](i64, i64, const WorkerInfo&) {});
        const auto st = team.last_loop_stats();
        EXPECT_EQ(st.pool_removals, (count + chunk - 1) / chunk)
            << "chunk=" << chunk << " count=" << count;
        EXPECT_EQ(st.local_removals + st.steal_removals, st.pool_removals)
            << "chunk=" << chunk << " count=" << count;
      }
    }
  }
}

TEST(ForkJoinStress, RemovalsNeverExceedIterations) {
  // Every successful removal hands out at least one iteration, so
  // pool_removals <= NI for every pool-based scheduler; pure static
  // distribution performs none at all.
  constexpr i64 kCount = 777;
  Team team(platform::generic_amp(4, 4, 3.0), 8, Mapping::kBigFirst,
            /*emulate_amp=*/false);
  for (const auto& c : stress_specs()) {
    for (int l = 0; l < 10; ++l) {
      team.run_loop(kCount, c.spec, [](i64, i64, const WorkerInfo&) {});
      const i64 removals = team.last_loop_stats().pool_removals;
      if (c.uses_pool) {
        EXPECT_GT(removals, 0) << c.spec.display();
        EXPECT_LE(removals, kCount) << c.spec.display();
      } else {
        EXPECT_EQ(removals, 0) << c.spec.display();
      }
    }
  }
}

TEST(ForkJoinStress, EmptyAndTinyLoopsTerminate) {
  // The serial fast path (count == 0 skips dispatch entirely) and loops
  // smaller than the team must still terminate and cover exactly once.
  Team team(platform::generic_amp(4, 4, 3.0), 8, Mapping::kBigFirst,
            /*emulate_amp=*/false);
  for (const auto& c : stress_specs()) {
    for (const i64 count : {i64{0}, i64{1}, i64{3}, i64{7}}) {
      std::atomic<i64> executed{0};
      team.run_loop(count, c.spec, [&](i64 b, i64 e, const WorkerInfo&) {
        executed.fetch_add(e - b);
      });
      EXPECT_EQ(executed.load(), count) << c.spec.display();
    }
  }
}

TEST(ForkJoinStress, AlternatingThreadCountsViaSeparateTeams) {
  // Two teams over the same platform, dispatched alternately: dispatch
  // generations and completion barriers must not bleed across teams.
  Team big(platform::generic_amp(4, 4, 3.0), 8, Mapping::kBigFirst,
           /*emulate_amp=*/false);
  Team small(platform::generic_amp(4, 4, 3.0), 3, Mapping::kSmallFirst,
             /*emulate_amp=*/false);
  std::atomic<i64> total{0};
  for (int l = 0; l < 50; ++l) {
    Team& team = (l % 2 == 0) ? big : small;
    team.run_loop(64, ScheduleSpec::dynamic(2),
                  [&](i64 b, i64 e, const WorkerInfo&) {
                    total.fetch_add(e - b);
                  });
  }
  EXPECT_EQ(total.load(), 50 * 64);
}

}  // namespace
}  // namespace aid::rt
