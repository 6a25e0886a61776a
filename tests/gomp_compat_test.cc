// The libgomp-shaped ABI (rt/gomp_compat.h): code structured exactly like
// GCC's OpenMP expansion must run correctly with the environment-selected
// schedule — the paper's "recompile, don't rewrite" integration story.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/env.h"
#include "platform/platform.h"
#include "rt/gomp_compat.h"
#include "rt/runtime.h"
#include "sched/scheduler_cache.h"

namespace aid::rt::gomp {
namespace {

// The global runtime reads the environment once; configure it before any
// test forks a team. A 4-thread emulation-free team keeps CI stable.
struct GlobalRuntimeConfigurator {
  GlobalRuntimeConfigurator() {
    ::setenv("AID_PLATFORM", "generic:2,2,3.0", 0);
    ::setenv("AID_NUM_THREADS", "4", 0);
    ::setenv("AID_SCHEDULE", "aid-static", 0);
    ::setenv("AID_EMULATE_AMP", "0", 0);
  }
};
const GlobalRuntimeConfigurator g_configure;

struct LoopCtx {
  std::vector<std::atomic<int>> hits;
  std::atomic<long> sum{0};
  explicit LoopCtx(usize n) : hits(n) {
    for (auto& h : hits) h.store(0);
  }
};

void gcc_style_loop_body(void* data) {
  auto* ctx = static_cast<LoopCtx*>(data);
  long start = 0;
  long end = 0;
  if (aid_gomp_loop_runtime_start(0, static_cast<long>(ctx->hits.size()), 1,
                                  &start, &end)) {
    do {
      for (long i = start; i < end; ++i)
        ctx->hits[static_cast<usize>(i)].fetch_add(1);
    } while (aid_gomp_loop_runtime_next(&start, &end));
  }
  aid_gomp_loop_end();
}

TEST(GompCompat, RuntimeScheduledLoopCoversEverythingOnce) {
  LoopCtx ctx(10000);
  aid_gomp_parallel(gcc_style_loop_body, &ctx);
  for (const auto& h : ctx.hits) ASSERT_EQ(h.load(), 1);
}

void strided_body(void* data) {
  auto* ctx = static_cast<LoopCtx*>(data);
  long start = 0;
  long end = 0;
  // for (i = 10; i < 100; i += 7): 13 iterations.
  if (aid_gomp_loop_runtime_start(10, 100, 7, &start, &end)) {
    do {
      for (long i = start; i != end; i += 7) ctx->sum.fetch_add(i);
    } while (aid_gomp_loop_runtime_next(&start, &end));
  }
  aid_gomp_loop_end();
}

TEST(GompCompat, StridedLoopMapsUserCoordinates) {
  LoopCtx ctx(1);
  aid_gomp_parallel(strided_body, &ctx);
  long expected = 0;
  for (long i = 10; i < 100; i += 7) expected += i;
  EXPECT_EQ(ctx.sum.load(), expected);
}

void two_loops_body(void* data) {
  auto* ctx = static_cast<LoopCtx*>(data);
  for (int rep = 0; rep < 2; ++rep) {
    long start = 0;
    long end = 0;
    if (aid_gomp_loop_runtime_start(0, static_cast<long>(ctx->hits.size()), 1,
                                    &start, &end)) {
      do {
        for (long i = start; i < end; ++i)
          ctx->hits[static_cast<usize>(i)].fetch_add(1);
      } while (aid_gomp_loop_runtime_next(&start, &end));
    }
    aid_gomp_loop_end();
  }
}

TEST(GompCompat, ConsecutiveWorkSharesChainCorrectly) {
  LoopCtx ctx(2048);
  aid_gomp_parallel(two_loops_body, &ctx);
  for (const auto& h : ctx.hits) ASSERT_EQ(h.load(), 2);
}

void nowait_body(void* data) {
  auto* ctx = static_cast<LoopCtx*>(data);
  long start = 0;
  long end = 0;
  if (aid_gomp_loop_runtime_start(0, 512, 1, &start, &end)) {
    do {
      for (long i = start; i < end; ++i)
        ctx->hits[static_cast<usize>(i)].fetch_add(1);
    } while (aid_gomp_loop_runtime_next(&start, &end));
  }
  aid_gomp_loop_end_nowait();  // no barrier: threads proceed immediately
  aid_gomp_barrier();          // explicit barrier instead
}

TEST(GompCompat, NowaitPlusExplicitBarrier) {
  LoopCtx ctx(512);
  aid_gomp_parallel(nowait_body, &ctx);
  for (const auto& h : ctx.hits) ASSERT_EQ(h.load(), 1);
}

// The nowait contract itself: a slow thread still inside work share k must
// not block a finished thread from entering (and completing its part of)
// work share k+1. Thread 0 finishes its chunks of loop k but then stalls
// *before its aid_gomp_loop_end_nowait* until some other thread has
// executed an iteration of loop k+1 — which is only possible if that
// thread's exit from loop k did not wait for thread 0. A barrier-flavored
// end_nowait would deadlock here; the bounded wait turns that into a
// test failure instead of a hang.
struct OverlapCtx {
  std::atomic<int> hits0{0};
  std::atomic<int> hits1{0};
  std::atomic<bool> peer_reached_next{false};
  std::atomic<bool> timed_out{false};
};

void nowait_overlap_body(void* data) {
  auto* ctx = static_cast<OverlapCtx*>(data);
  const int tid = aid_gomp_thread_num();
  long start = 0;
  long end = 0;
  if (aid_gomp_loop_runtime_start(0, 64, 1, &start, &end)) {
    do {
      for (long i = start; i < end; ++i) ctx->hits0.fetch_add(1);
    } while (aid_gomp_loop_runtime_next(&start, &end));
  }
  if (tid == 0) {
    // Straggle in loop k (chunks done, exit not yet signalled) until a
    // peer proves it ran loop k+1.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!ctx->peer_reached_next.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > deadline) {
        ctx->timed_out.store(true);
        break;
      }
      std::this_thread::yield();
    }
  }
  aid_gomp_loop_end_nowait();
  if (aid_gomp_loop_runtime_start(0, 64, 1, &start, &end)) {
    do {
      for (long i = start; i < end; ++i) {
        ctx->hits1.fetch_add(1);
        if (tid != 0)
          ctx->peer_reached_next.store(true, std::memory_order_release);
      }
    } while (aid_gomp_loop_runtime_next(&start, &end));
  }
  aid_gomp_loop_end();
}

TEST(GompCompat, NowaitDoesNotBlockRunAheadThreads) {
  OverlapCtx ctx;
  aid_gomp_parallel(nowait_overlap_body, &ctx);
  EXPECT_FALSE(ctx.timed_out.load())
      << "no peer entered loop k+1 while thread 0 straggled in loop k — "
         "nowait is blocking";
  EXPECT_EQ(ctx.hits0.load(), 64);
  EXPECT_EQ(ctx.hits1.load(), 64);
}

// --- chain semantics: GOMP work shares on the generation ring --------------
//
// Consecutive nowait work shares now flow through a ring of kChainRing
// in-flight constructs (see src/rt/README.md "GOMP nowait chains"): these
// tests pin the ring's contract — exactly-once delivery across many more
// shares than the ring holds, run-ahead across several generations, the
// non-nowait barrier, and the per-shape scheduler cache behind it.

struct ChainCtx {
  static constexpr int kLoops = 20;  // > kChainRing: slots are reused
  static constexpr long kIters = 4096;
  std::vector<std::vector<std::atomic<int>>> hits;
  ChainCtx() : hits(kLoops) {
    for (auto& loop : hits) {
      std::vector<std::atomic<int>> fresh(kIters);
      for (auto& h : fresh) h.store(0);
      loop.swap(fresh);
    }
  }
};

void chained_nowait_body(void* data) {
  auto* ctx = static_cast<ChainCtx*>(data);
  for (int k = 0; k < ChainCtx::kLoops; ++k) {
    long start = 0;
    long end = 0;
    if (aid_gomp_loop_runtime_start(0, ChainCtx::kIters, 1, &start, &end)) {
      do {
        for (long i = start; i < end; ++i)
          ctx->hits[static_cast<usize>(k)][static_cast<usize>(i)].fetch_add(1);
      } while (aid_gomp_loop_runtime_next(&start, &end));
    }
    aid_gomp_loop_end_nowait();
  }
}

TEST(GompCompatChain, ManyNowaitLoopsDeliverExactlyOnce) {
  ChainCtx ctx;
  aid_gomp_parallel(chained_nowait_body, &ctx);
  for (int k = 0; k < ChainCtx::kLoops; ++k)
    for (long i = 0; i < ChainCtx::kIters; ++i)
      ASSERT_EQ(ctx.hits[static_cast<usize>(k)][static_cast<usize>(i)].load(),
                1)
          << "loop " << k << " iteration " << i;
}

// Run-ahead across *multiple* generations: thread 0 straggles inside work
// share 0 (chunks done, nowait exit withheld) until a peer proves it has
// executed an iteration of work share 2 — two ring generations ahead.
// Under the old single-live-work-share bookkeeping a peer could enter
// share 1 but the ring is what lets the whole team flow loop-to-loop; a
// blocking regression turns this into a bounded-wait failure, not a hang.
struct DeepOverlapCtx {
  std::atomic<int> hits[3] = {{0}, {0}, {0}};
  std::atomic<bool> peer_reached_third{false};
  std::atomic<bool> timed_out{false};
};

void deep_overlap_body(void* data) {
  auto* ctx = static_cast<DeepOverlapCtx*>(data);
  const int tid = aid_gomp_thread_num();
  for (int k = 0; k < 3; ++k) {
    long start = 0;
    long end = 0;
    if (aid_gomp_loop_runtime_start(0, 64, 1, &start, &end)) {
      do {
        for (long i = start; i < end; ++i) {
          ctx->hits[k].fetch_add(1);
          if (k == 2 && tid != 0)
            ctx->peer_reached_third.store(true, std::memory_order_release);
        }
      } while (aid_gomp_loop_runtime_next(&start, &end));
    }
    if (k == 0 && tid == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (!ctx->peer_reached_third.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
          ctx->timed_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
    }
    aid_gomp_loop_end_nowait();
  }
}

TEST(GompCompatChain, RunAheadThreadsOverlapMultipleGenerations) {
  if (Runtime::instance().nthreads() < 2)
    GTEST_SKIP() << "overlap needs a peer thread";
  DeepOverlapCtx ctx;
  aid_gomp_parallel(deep_overlap_body, &ctx);
  EXPECT_FALSE(ctx.timed_out.load())
      << "no peer executed work share 2 while thread 0 straggled in work "
         "share 0 — the ring is not letting threads run ahead";
  for (int k = 0; k < 3; ++k) EXPECT_EQ(ctx.hits[k].load(), 64);
}

// The non-nowait end is the construct's barrier: when aid_gomp_loop_end
// returns, *every* iteration of that work share — including other
// threads' — must have executed. A nowait-flavored end would let a
// fast thread observe a partially executed share here.
struct BarrierCtx {
  static constexpr long kIters = 2048;
  std::atomic<long> done_iters{0};
  std::atomic<int> short_counts{0};
};

void barriered_body(void* data) {
  auto* ctx = static_cast<BarrierCtx*>(data);
  for (int rep = 0; rep < 4; ++rep) {
    long start = 0;
    long end = 0;
    if (aid_gomp_loop_runtime_start(0, BarrierCtx::kIters, 1, &start, &end)) {
      do {
        for (long i = start; i < end; ++i) ctx->done_iters.fetch_add(1);
      } while (aid_gomp_loop_runtime_next(&start, &end));
    }
    aid_gomp_loop_end();
    if (ctx->done_iters.load() < (rep + 1) * BarrierCtx::kIters)
      ctx->short_counts.fetch_add(1);
  }
}

TEST(GompCompatChain, NonNowaitEndStillBarriers) {
  BarrierCtx ctx;
  aid_gomp_parallel(barriered_body, &ctx);
  EXPECT_EQ(ctx.short_counts.load(), 0)
      << "a thread returned from aid_gomp_loop_end before the work share "
         "fully completed";
  EXPECT_EQ(ctx.done_iters.load(), 4 * BarrierCtx::kIters);
}

// The per-shape scheduler cache (sched/scheduler_cache.h): repeated
// identical ScheduleSpecs re-arm the same instance instead of building a
// new one; distinct shapes, busy instances, and invalidation all miss.
TEST(GompCompatChain, SchedulerCacheReusesInstancesPerShape) {
  const auto platform = platform::generic_amp(2, 2, 2.0);
  const platform::TeamLayout layout(platform, 4,
                                    platform::Mapping::kBigFirst);
  sched::SchedulerCache cache;
  const auto spec = sched::ScheduleSpec::dynamic(16);

  sched::LoopScheduler* first = cache.acquire(spec, 1024, layout);
  EXPECT_EQ(cache.misses(), 1u);
  // Same shape while the instance is busy: a second live instance.
  sched::LoopScheduler* second = cache.acquire(spec, 512, layout);
  EXPECT_NE(first, second);
  EXPECT_EQ(cache.misses(), 2u);
  cache.release(first);
  cache.release(second);

  // Idle again: the same instance comes back, re-armed for the new count.
  sched::LoopScheduler* reused = cache.acquire(spec, 2048, layout);
  EXPECT_TRUE(reused == first || reused == second);
  EXPECT_EQ(cache.hits(), 1u);
  cache.release(reused);

  // A different shape is a different cache line-age: no reuse.
  sched::LoopScheduler* other =
      cache.acquire(sched::ScheduleSpec::guided(4), 1024, layout);
  EXPECT_NE(other, first);
  EXPECT_NE(other, second);
  cache.release(other);

  // Invalidation (a pool repartition) dooms cached instances.
  cache.invalidate();
  sched::LoopScheduler* fresh = cache.acquire(spec, 1024, layout);
  EXPECT_EQ(cache.hits(), 1u) << "post-invalidate acquire must not hit";
  cache.release(fresh);

  // Invalidation with a lease IN FLIGHT (a repartition committing between
  // chain ring entries): the busy instance bakes in the dead layout, so
  // its release must destroy it — a later same-shape acquire is a miss,
  // never a repool of the doomed instance.
  sched::LoopScheduler* doomed = cache.acquire(spec, 1024, layout);
  cache.invalidate();
  cache.release(doomed);
  const u64 hits_after_doom = cache.hits();
  sched::LoopScheduler* rebuilt = cache.acquire(spec, 1024, layout);
  EXPECT_EQ(cache.hits(), hits_after_doom)
      << "a doomed lease was repooled across invalidate()";
  cache.release(rebuilt);
}

// End-to-end: the global runtime's cache serves repeated GOMP regions —
// the second region's work shares are all re-arms (every shape was seen
// and released by the first region's flush).
TEST(GompCompatChain, RepeatedRegionsHitTheRuntimeSchedulerCache) {
  ChainCtx warm;  // first region: populate the cache
  aid_gomp_parallel(chained_nowait_body, &warm);
  sched::SchedulerCache& cache = Runtime::instance().scheduler_cache();
  const u64 hits_before = cache.hits();
  const u64 misses_before = cache.misses();
  ChainCtx ctx;
  aid_gomp_parallel(chained_nowait_body, &ctx);
  EXPECT_GT(cache.hits(), hits_before)
      << "second identical region produced no cache hits";
  EXPECT_EQ(cache.misses(), misses_before)
      << "second identical region should be fully served from the cache";
}

void team_query_body(void* data) {
  auto* ctx = static_cast<LoopCtx*>(data);
  ctx->hits[static_cast<usize>(aid_gomp_thread_num())].fetch_add(1);
  ctx->sum.store(aid_gomp_num_threads());
}

TEST(GompCompat, ThreadAndTeamQueries) {
  const int team_size = Runtime::instance().nthreads();
  LoopCtx ctx(static_cast<usize>(team_size));
  aid_gomp_parallel(team_query_body, &ctx);
  EXPECT_EQ(ctx.sum.load(), team_size);
  for (const auto& h : ctx.hits)
    EXPECT_EQ(h.load(), 1) << "every member runs fn exactly once";
}

TEST(GompCompat, SerialQueriesOutsideParallel) {
  EXPECT_EQ(aid_gomp_thread_num(), 0);
  EXPECT_EQ(aid_gomp_num_threads(), 1);
}

}  // namespace
}  // namespace aid::rt::gomp
