// Loop-pipeline subsystem, team path (src/pipeline/ + rt::Team::run_chain):
// chains of dependent loops executed with nowait semantics over the
// generation-dock ring.
//
// Properties:
//  * exactly-once — every canonical iteration of every chained loop runs
//    once, for chains shorter and longer than the slot ring (reuse);
//  * dependency gating — a depends_on edge makes every predecessor write
//    visible before any successor iteration runs, even with mismatched
//    distributions;
//  * nowait overlap — a straggler in loop k does not stop other team
//    members from executing loop k+1.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "pipeline/loop_chain.h"
#include "platform/platform.h"
#include "rt/team.h"

namespace aid::pipeline {
namespace {

using sched::ScheduleSpec;

rt::Team make_team(int nthreads) {
  return rt::Team(platform::generic_amp(nthreads - nthreads / 2,
                                        nthreads / 2 > 0 ? nthreads / 2 : 1,
                                        2.0),
                  nthreads, platform::Mapping::kBigFirst,
                  /*emulate_amp=*/false);
}

TEST(PipelineChain, EveryLoopCoversEveryIterationOnce) {
  rt::Team team = make_team(4);
  constexpr i64 kCount = 3001;  // odd: uneven splits
  const ScheduleSpec specs[] = {
      ScheduleSpec::static_even(),   ScheduleSpec::dynamic(1),
      ScheduleSpec::dynamic(7),      ScheduleSpec::guided(2),
      ScheduleSpec::static_chunked(5), ScheduleSpec::dynamic(16),
  };
  const usize loops = std::size(specs);
  std::vector<std::vector<std::atomic<u16>>> hits(loops);
  for (auto& h : hits) {
    std::vector<std::atomic<u16>> v(kCount);
    for (auto& x : v) x.store(0);
    h = std::move(v);
  }

  LoopChain chain;
  for (usize l = 0; l < loops; ++l) {
    chain.add(kCount, specs[l],
              [&hits, l](i64 b, i64 e, const rt::WorkerInfo&) {
                for (i64 i = b; i < e; ++i)
                  hits[l][static_cast<usize>(i)].fetch_add(
                      1, std::memory_order_relaxed);
              });
  }
  team.run_chain(chain);

  for (usize l = 0; l < loops; ++l)
    for (i64 i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[l][static_cast<usize>(i)].load(), 1)
          << "loop " << l << " iteration " << i;
}

TEST(PipelineChain, LongChainReusesTheSlotRing) {
  rt::Team team = make_team(4);
  constexpr i64 kCount = 257;
  const usize loops = 3 * rt::Team::kChainRing + 1;  // forces slot reuse
  std::vector<std::vector<std::atomic<u16>>> hits(loops);
  for (auto& h : hits) {
    std::vector<std::atomic<u16>> v(kCount);
    for (auto& x : v) x.store(0);
    h = std::move(v);
  }

  LoopChain chain;
  for (usize l = 0; l < loops; ++l) {
    // The final loop depends on loop 0 — a dependency pointing further
    // back than the ring is deep, whose slot has been reused many times
    // by publish time. The monotone completion watermark must treat it
    // as already satisfied instead of latching onto the new occupant.
    const int dep = l + 1 == loops ? 0 : -1;
    chain.add(kCount, ScheduleSpec::dynamic(1),
              [&hits, l](i64 b, i64 e, const rt::WorkerInfo&) {
                for (i64 i = b; i < e; ++i)
                  hits[l][static_cast<usize>(i)].fetch_add(
                      1, std::memory_order_relaxed);
              },
              dep);
  }
  team.run_chain(chain);

  for (usize l = 0; l < loops; ++l)
    for (i64 i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[l][static_cast<usize>(i)].load(), 1)
          << "loop " << l << " iteration " << i;
}

TEST(PipelineChain, DependencyMakesPredecessorWritesVisible) {
  rt::Team team = make_team(4);
  constexpr i64 kCount = 10000;
  // Plain (non-atomic) arrays: the dependency edge is the only thing that
  // makes this race-free, which is exactly what it must provide. The
  // mirrored index and the mismatched schedules guarantee cross-thread
  // reads.
  std::vector<i64> a(kCount, 0);
  std::vector<i64> b(kCount, -1);

  LoopChain chain;
  const int fill = chain.add(kCount, ScheduleSpec::dynamic(3),
                             [&a](i64 lo, i64 hi, const rt::WorkerInfo&) {
                               for (i64 i = lo; i < hi; ++i) a[i] = i + 1;
                             });
  chain.add_after(fill, kCount, ScheduleSpec::static_even(),
                  [&a, &b](i64 lo, i64 hi, const rt::WorkerInfo&) {
                    for (i64 i = lo; i < hi; ++i)
                      b[i] = a[kCount - 1 - i];
                  });
  team.run_chain(chain);

  for (i64 i = 0; i < kCount; ++i)
    ASSERT_EQ(b[static_cast<usize>(i)], kCount - i) << "index " << i;
}

TEST(PipelineChain, StragglerInLoopKDoesNotBlockLoopKPlusOne) {
  rt::Team team = make_team(4);
  std::atomic<bool> next_loop_ran{false};
  std::atomic<bool> timed_out{false};

  LoopChain chain;
  // Loop k: whoever draws iteration 0 straggles until some team member has
  // executed an iteration of loop k+1 — only possible if members that
  // drained their loop-k shares flowed into loop k+1 without a barrier.
  chain.add(8, ScheduleSpec::dynamic(1),
            [&](i64 b, i64 e, const rt::WorkerInfo&) {
              for (i64 i = b; i < e; ++i) {
                if (i != 0) continue;
                const auto deadline = std::chrono::steady_clock::now() +
                                      std::chrono::seconds(30);
                while (!next_loop_ran.load(std::memory_order_acquire)) {
                  if (std::chrono::steady_clock::now() > deadline) {
                    timed_out.store(true);
                    break;
                  }
                  std::this_thread::yield();
                }
              }
            });
  chain.add(64, ScheduleSpec::dynamic(1),
            [&](i64, i64, const rt::WorkerInfo&) {
              next_loop_ran.store(true, std::memory_order_release);
            });
  team.run_chain(chain);

  EXPECT_FALSE(timed_out.load())
      << "no team member reached loop k+1 while the straggler sat in "
         "loop k — the chain is barriering between constructs";
}

TEST(PipelineChain, EmptyLoopsAndSerialTeamsDegenerate) {
  // count == 0 entries complete trivially (and may carry dependencies);
  // a one-thread team runs the chain in order with zero dispatches.
  for (const int nthreads : {1, 4}) {
    rt::Team team = make_team(nthreads);
    std::atomic<int> ran{0};
    LoopChain chain;
    const int empty = chain.add(0, ScheduleSpec::static_even(),
                                [](i64, i64, const rt::WorkerInfo&) {
                                  FAIL() << "empty loop body ran";
                                });
    const int work = chain.add_after(
        empty, 100, ScheduleSpec::dynamic(1),
        [&ran](i64 b, i64 e, const rt::WorkerInfo&) {
          ran.fetch_add(static_cast<int>(e - b));
        });
    chain.add_after(work, 0, ScheduleSpec::dynamic(2),
                    [](i64, i64, const rt::WorkerInfo&) {
                      FAIL() << "empty loop body ran";
                    });
    team.run_chain(chain);
    EXPECT_EQ(ran.load(), 100) << "nthreads=" << nthreads;
  }
}

TEST(PipelineChain, RunLoopAndRunChainInterleave) {
  // The single-construct path and the chain path share the slot ring;
  // alternating them must keep both exactly-once.
  rt::Team team = make_team(4);
  constexpr i64 kCount = 513;
  for (int round = 0; round < 5; ++round) {
    std::vector<std::atomic<u16>> solo(kCount);
    for (auto& h : solo) h.store(0);
    team.run_loop(kCount, ScheduleSpec::dynamic(2),
                  [&solo](i64 b, i64 e, const rt::WorkerInfo&) {
                    for (i64 i = b; i < e; ++i)
                      solo[static_cast<usize>(i)].fetch_add(
                          1, std::memory_order_relaxed);
                  });
    std::vector<std::atomic<u16>> chained(kCount);
    for (auto& h : chained) h.store(0);
    LoopChain chain;
    for (int l = 0; l < 3; ++l) {
      chain.add(kCount, ScheduleSpec::static_even(),
                [&chained](i64 b, i64 e, const rt::WorkerInfo&) {
                  for (i64 i = b; i < e; ++i)
                    chained[static_cast<usize>(i)].fetch_add(
                        1, std::memory_order_relaxed);
                });
    }
    team.run_chain(chain);
    for (i64 i = 0; i < kCount; ++i) {
      ASSERT_EQ(solo[static_cast<usize>(i)].load(), 1);
      ASSERT_EQ(chained[static_cast<usize>(i)].load(), 3);
    }
  }
}

}  // namespace
}  // namespace aid::pipeline
