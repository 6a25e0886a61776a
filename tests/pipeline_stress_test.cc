// Loop-pipeline + pool interaction stress (the AID_POOL=1 path): chains of
// dependent loops run on leased partitions while the arbiter reshapes them,
// with repartition commits landing *between ring entries* of a chain.
//
// Properties under stress:
//  * exactly-once — every canonical iteration of every loop of every chain
//    runs exactly once, across policy churn, co-running apps, and
//    mid-chain partition commits;
//  * dependency gating survives repartitioning — an edge into a loop that
//    ran on the pre-commit partition still gates the post-commit loops;
//  * the lease-routed Runtime (AID_POOL=1) drives the same machinery
//    through rt::Runtime::run_chain.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/env.h"
#include "pipeline/loop_chain.h"
#include "platform/platform.h"
#include "pool/pool_manager.h"
#include "rt/runtime.h"

namespace aid::pipeline {
namespace {

using pool::AppHandle;
using pool::Policy;
using pool::PoolManager;
using sched::ScheduleSpec;

// The process-wide manager and the global-ish runtimes read the
// environment on first use; configure before any test touches them. This
// is what makes the lease-routed test genuinely the AID_POOL=1 path.
struct GlobalPoolConfigurator {
  GlobalPoolConfigurator() {
    ::setenv("AID_POOL", "1", 0);
    ::setenv("AID_EMULATE_AMP", "0", 0);
    ::setenv("AID_SCHEDULE", "dynamic,2", 0);
  }
};
const GlobalPoolConfigurator g_configure;

PoolManager::Config test_config() {
  PoolManager::Config c;
  c.emulate_amp = false;
  return c;
}

/// Run `rounds` four-loop chains on `app`, each verified exactly-once.
/// Loop 2 depends on loop 1, so every round also checks that dependency
/// gating survives whatever partition commits land mid-chain.
void chain_main(AppHandle& app, int rounds, i64 count, int max_threads) {
  const ScheduleSpec specs[] = {
      ScheduleSpec::dynamic(1),
      ScheduleSpec::static_even(),
      ScheduleSpec::guided(2),
      ScheduleSpec::dynamic(5),
  };
  constexpr usize kLoops = 4;
  std::vector<std::vector<std::atomic<u16>>> hits(kLoops);
  for (auto& h : hits) {
    std::vector<std::atomic<u16>> v(static_cast<usize>(count));
    h = std::move(v);
  }
  std::vector<i64> shared(static_cast<usize>(count), 0);

  for (int round = 0; round < rounds; ++round) {
    for (auto& h : hits)
      for (auto& x : h) x.store(0, std::memory_order_relaxed);
    std::atomic<int> max_tid{0};
    const auto track = [&](int tid) {
      int prev = max_tid.load(std::memory_order_relaxed);
      while (prev < tid && !max_tid.compare_exchange_weak(
                               prev, tid, std::memory_order_relaxed)) {
      }
    };

    LoopChain chain;
    chain.add(count, specs[0], [&](i64 b, i64 e, const rt::WorkerInfo& w) {
      track(w.tid);
      for (i64 i = b; i < e; ++i)
        hits[0][static_cast<usize>(i)].fetch_add(1,
                                                 std::memory_order_relaxed);
    });
    const int fill =
        chain.add(count, specs[1], [&](i64 b, i64 e, const rt::WorkerInfo& w) {
          track(w.tid);
          for (i64 i = b; i < e; ++i) {
            hits[1][static_cast<usize>(i)].fetch_add(
                1, std::memory_order_relaxed);
            shared[static_cast<usize>(i)] = i + round;
          }
        });
    chain.add_after(
        fill, count, specs[2], [&](i64 b, i64 e, const rt::WorkerInfo& w) {
          track(w.tid);
          for (i64 i = b; i < e; ++i) {
            hits[2][static_cast<usize>(i)].fetch_add(
                1, std::memory_order_relaxed);
            // The dependency edge makes the mirrored read race-free.
            if (shared[static_cast<usize>(count - 1 - i)] !=
                count - 1 - i + round)
              ADD_FAILURE() << "dependency violated at " << i;
          }
        });
    chain.add(count, specs[3], [&](i64 b, i64 e, const rt::WorkerInfo& w) {
      track(w.tid);
      for (i64 i = b; i < e; ++i)
        hits[3][static_cast<usize>(i)].fetch_add(1,
                                                 std::memory_order_relaxed);
    });
    app.run_chain(chain);

    for (usize l = 0; l < kLoops; ++l)
      for (i64 i = 0; i < count; ++i)
        ASSERT_EQ(hits[l][static_cast<usize>(i)].load(), 1)
            << "round " << round << " loop " << l << " iteration " << i;
    EXPECT_LT(max_tid.load(), max_threads)
        << "tid outside machine, round " << round;
  }
}

TEST(PipelineStress, FourLoopChainsUnderPolicyChurn) {
  constexpr int kRounds = 12;
  constexpr i64 kCount = 401;  // odd: uneven splits
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());
  const int ncores = mgr.platform().num_cores();

  AppHandle a = mgr.register_app("a", /*weight=*/1.0);
  AppHandle b = mgr.register_app("b", /*weight=*/3.0);

  std::thread ta([&] { chain_main(a, kRounds, kCount, ncores); });
  std::thread tb([&] { chain_main(b, kRounds, kCount, ncores); });

  // The arbiter: cycle policies while both apps pipeline, forcing commits
  // to land between chain ring entries (not just between chains).
  const Policy policies[] = {Policy::kProportional, Policy::kBigCorePriority,
                             Policy::kEqualShare};
  for (int round = 0; round < 40; ++round) {
    mgr.set_policy(policies[round % 3]);
    std::this_thread::yield();
    mgr.repartition();
  }

  ta.join();
  tb.join();

  // Idle convergence still holds after pipelined execution.
  mgr.set_policy(Policy::kProportional);
  EXPECT_EQ(a.nthreads(), 2);
  EXPECT_EQ(b.nthreads(), 6);
}

// A lease-routed chain much longer than the entry ring, all loops one
// shape: exercises the pool chain's ring-slot reuse AND the scheduler
// cache's release-at-reuse path (a published entry's lease is handed back
// the moment the reuse guard proves its slot's previous occupant
// complete), with a policy-churning arbiter landing commits mid-chain.
TEST(PipelineStress, LongSameShapeChainReusesRingAndCacheOnLease) {
  constexpr usize kLoops = 3 * rt::PoolJob::kChainRing + 1;
  constexpr i64 kCount = 257;
  PoolManager mgr(platform::generic_amp(4, 4, 3.0), test_config());

  AppHandle app = mgr.register_app("long-chain");
  std::vector<std::vector<std::atomic<u16>>> hits(kLoops);
  for (auto& loop : hits) {
    std::vector<std::atomic<u16>> v(kCount);
    for (auto& h : v) h.store(0);
    loop.swap(v);
  }

  LoopChain chain;
  for (usize k = 0; k < kLoops; ++k) {
    auto* mine = &hits[k];
    chain.add(kCount, ScheduleSpec::dynamic(3),
              [mine](i64 b, i64 e, const rt::WorkerInfo&) {
                for (i64 i = b; i < e; ++i)
                  (*mine)[static_cast<usize>(i)].fetch_add(1);
              });
  }

  std::atomic<bool> done{false};
  std::thread churn([&] {
    while (!done.load(std::memory_order_acquire)) {
      mgr.repartition();
      std::this_thread::yield();
    }
  });
  for (int round = 0; round < 4; ++round) app.run_chain(chain);
  done.store(true, std::memory_order_release);
  churn.join();

  for (usize k = 0; k < kLoops; ++k)
    for (i64 i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[k][static_cast<usize>(i)].load(), 4)
          << "loop " << k << " iteration " << i;
  app.release();
}

TEST(PipelineStress, LeaseRoutedRuntimeChainUnderChurn) {
  // The unmodified-application path: a Runtime configured from the
  // environment (AID_POOL=1) leases from the process-wide manager, and
  // Runtime::run_chain drives the chain through the lease while the
  // arbiter churns underneath.
  rt::Runtime runtime(rt::platform_from_env(), rt::RuntimeConfig::from_env());
  ASSERT_TRUE(runtime.uses_pool());
  PoolManager& mgr = PoolManager::instance();

  constexpr i64 kCount = 500;
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    const Policy policies[] = {Policy::kBigCorePriority, Policy::kEqualShare};
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      mgr.set_policy(policies[i++ % 2]);
      std::this_thread::yield();
    }
  });

  for (int round = 0; round < 8; ++round) {
    std::vector<std::atomic<u16>> hits(static_cast<usize>(kCount));
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    std::vector<i64> a(static_cast<usize>(kCount), 0);

    LoopChain chain;
    const int fill = chain.add(
        kCount, ScheduleSpec::dynamic(3),
        [&a](i64 lo, i64 hi, const rt::WorkerInfo&) {
          for (i64 i = lo; i < hi; ++i) a[static_cast<usize>(i)] = 3 * i;
        });
    chain.add(kCount, ScheduleSpec::dynamic(1),
              [&hits](i64 lo, i64 hi, const rt::WorkerInfo&) {
                for (i64 i = lo; i < hi; ++i)
                  hits[static_cast<usize>(i)].fetch_add(
                      1, std::memory_order_relaxed);
              });
    chain.add_after(fill, kCount, ScheduleSpec::static_even(),
                    [&a, &hits](i64 lo, i64 hi, const rt::WorkerInfo&) {
                      for (i64 i = lo; i < hi; ++i) {
                        if (a[static_cast<usize>(kCount - 1 - i)] !=
                            3 * (kCount - 1 - i))
                          ADD_FAILURE() << "dependency violated at " << i;
                        hits[static_cast<usize>(i)].fetch_add(
                            1, std::memory_order_relaxed);
                      }
                    });
    chain.add(kCount, ScheduleSpec::guided(2),
              [&hits](i64 lo, i64 hi, const rt::WorkerInfo&) {
                for (i64 i = lo; i < hi; ++i)
                  hits[static_cast<usize>(i)].fetch_add(
                      1, std::memory_order_relaxed);
              });
    runtime.run_chain(chain);

    for (i64 i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[static_cast<usize>(i)].load(), 3)
          << "round " << round << " iteration " << i;
  }

  stop.store(true);
  churn.join();
}

}  // namespace
}  // namespace aid::pipeline
