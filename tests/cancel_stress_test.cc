// Cancellation under stress, both runtimes (rt::Team and pool::PoolManager).
//
// The load-bearing invariant everywhere is exactly-once-OR-cancelled:
// whatever fires (user token, deadline, a thrown body, a dependency),
// every canonical iteration executes 0 or 1 times — never twice — the
// construct always returns, and the runtime stays fully usable afterwards.
//
// Covers: cancel from another thread, deadline expiry mid-chain cancelling
// the entry AND its dependents (but not independent entries), a throwing
// chain entry (rethrown once, after the flush), chain-wide tokens via
// LoopChain::bind_cancel and the Runtime overloads, AppHandle::cancel,
// cancellation racing repartition commits, and co-tenant survival (one
// app's failures never corrupt or wedge its neighbour's lease). The chain
// cases run on both owners of the dispatch engine: Team and a lease.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "pipeline/loop_chain.h"
#include "platform/platform.h"
#include "pool/policy.h"
#include "pool/pool_manager.h"
#include "rt/runtime.h"
#include "rt/runtime_config.h"
#include "rt/team.h"
#include "sched/schedule_spec.h"

namespace aid {
namespace {

using pipeline::LoopChain;
using sched::ScheduleSpec;

rt::Team make_team(int nthreads) {
  return rt::Team(platform::generic_amp(2, 2, 2.0), nthreads,
                  platform::Mapping::kBigFirst, /*emulate_amp=*/false);
}

pool::PoolManager::Config pool_config() {
  pool::PoolManager::Config c;
  c.emulate_amp = false;
  return c;
}

/// Per-iteration hit counters (the at-most-once half is the invariant the
/// cancellation machinery must never break; the exactly-once half is what
/// un-cancelled loops must still deliver).
struct HitCounts {
  explicit HitCounts(i64 count) : hits(static_cast<usize>(count)) {}
  std::vector<std::atomic<int>> hits;

  rt::RangeBody body() {
    return [this](i64 b, i64 e, const rt::WorkerInfo&) {
      for (i64 i = b; i < e; ++i)
        hits[static_cast<usize>(i)].fetch_add(1, std::memory_order_relaxed);
    };
  }
  /// Same accounting with a per-chunk sleep, so a deadline or a racing
  /// cancel provably lands mid-loop instead of after a drained pool.
  rt::RangeBody slow_body(std::chrono::microseconds per_chunk) {
    return [this, per_chunk](i64 b, i64 e, const rt::WorkerInfo&) {
      std::this_thread::sleep_for(per_chunk);
      for (i64 i = b; i < e; ++i)
        hits[static_cast<usize>(i)].fetch_add(1, std::memory_order_relaxed);
    };
  }
  [[nodiscard]] i64 executed() const {
    i64 n = 0;
    for (const auto& h : hits) n += h.load(std::memory_order_relaxed);
    return n;
  }
  void expect_at_most_once() const {
    for (usize i = 0; i < hits.size(); ++i)
      ASSERT_LE(hits[i].load(std::memory_order_relaxed), 1)
          << "iteration " << i << " executed twice";
  }
  void expect_exactly_once() const {
    for (usize i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(std::memory_order_relaxed), 1)
          << "iteration " << i;
  }
};

// --- team: token plumbing --------------------------------------------------

TEST(CancelStress, BodyFiredCancelStopsWithinOneChunkPerThread) {
  rt::Team team = make_team(4);
  constexpr i64 kCount = 1 << 16;
  CancelToken token;
  HitCounts counts(kCount);
  const rt::RangeBody inner = counts.body();
  team.run_loop(kCount, ScheduleSpec::dynamic(16).with_cancel(&token),
                [&](i64 b, i64 e, const rt::WorkerInfo& w) {
                  token.cancel();
                  inner(b, e, w);
                });
  EXPECT_EQ(token.reason(), CancelReason::kUser);
  counts.expect_at_most_once();
  // Cancel latency is one chunk per participant: after the first chunk
  // fires the token, each of the 4 threads finishes at most its in-flight
  // chunk and takes nothing more.
  EXPECT_GT(counts.executed(), 0);
  EXPECT_LE(counts.executed(), 16 * 4);

  // Token reuse across constructs: reset re-arms it.
  token.reset();
  EXPECT_FALSE(token.cancelled());
  HitCounts after(kCount);
  team.run_loop(kCount, ScheduleSpec::dynamic(64).with_cancel(&token),
                after.body());
  after.expect_exactly_once();
}

TEST(CancelStress, CancelFromAnotherThreadStopsTheLoop) {
  rt::Team team = make_team(2);
  constexpr i64 kCount = 1 << 12;  // 256 chunks x 1ms: ~128ms/thread
  CancelToken token;
  HitCounts counts(kCount);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.cancel();
  });
  team.run_loop(kCount, ScheduleSpec::dynamic(16).with_cancel(&token),
                counts.slow_body(std::chrono::microseconds(1000)));
  killer.join();
  EXPECT_EQ(token.reason(), CancelReason::kUser);
  counts.expect_at_most_once();
  EXPECT_GT(counts.executed(), 0);
  EXPECT_LT(counts.executed(), kCount);
}

TEST(CancelStress, PreCancelledTokenRunsNothing) {
  rt::Team team = make_team(4);
  CancelToken token;
  token.cancel();
  HitCounts counts(1 << 12);
  team.run_loop(1 << 12, ScheduleSpec::dynamic(8).with_cancel(&token),
                counts.body());
  EXPECT_EQ(counts.executed(), 0);
}

TEST(CancelStress, ThrowingBodySurfacesOnMasterAndCancelsPeers) {
  // No fault harness here: a plain application throw must behave the same
  // way (first exception wins, peers drain cooperatively, master rethrows
  // after the gate closed, team reusable).
  rt::Team team = make_team(4);
  constexpr i64 kCount = 1 << 14;
  HitCounts counts(kCount);
  const rt::RangeBody inner = counts.body();
  EXPECT_THROW(
      team.run_loop(kCount, ScheduleSpec::dynamic(16),
                    [&](i64 b, i64 e, const rt::WorkerInfo& w) {
                      if (b == 0) throw std::runtime_error("app failure");
                      inner(b, e, w);
                    }),
      std::runtime_error);
  counts.expect_at_most_once();
  EXPECT_LT(counts.executed(), kCount);  // iteration 0's chunk never ran
  HitCounts after(kCount);
  team.run_loop(kCount, ScheduleSpec::dynamic(16), after.body());
  after.expect_exactly_once();
}

// --- chains, on both owners of the dispatch engine -------------------------

/// A chain owner: an rt::Team, or a pool::PoolManager lease. Both drive the
/// engine's one chain driver, so every chain failure case runs on both.
struct OwnerCase {
  const char* name;
  bool lease;
  int threads;  ///< team size, or the leased partition's core count
};

class ChainOwner {
 public:
  explicit ChainOwner(const OwnerCase& c) {
    if (!c.lease) {
      team_ = std::make_unique<rt::Team>(platform::generic_amp(2, 2, 2.0),
                                         c.threads,
                                         platform::Mapping::kBigFirst,
                                         /*emulate_amp=*/false);
      return;
    }
    // A lone app leases a whole (threads - threads/2)S + (threads/2)B
    // machine; a single-core partition needs a second app to split 1S+1B.
    const int big = c.threads > 1 ? c.threads / 2 : 1;
    mgr_ = std::make_unique<pool::PoolManager>(
        platform::generic_amp(c.threads > 1 ? c.threads - big : 1, big, 2.0),
        pool_config());
    lease_ = mgr_->register_app("owner");
    if (c.threads == 1) ballast_ = mgr_->register_app("ballast");
    EXPECT_EQ(lease_.nthreads(), c.threads);
  }

  void run_chain(const LoopChain& chain) {
    if (team_ != nullptr)
      team_->run_chain(chain);
    else
      lease_.run_chain(chain);
  }

 private:
  std::unique_ptr<rt::Team> team_;
  // Declared before the leases: they unregister before the manager dies.
  std::unique_ptr<pool::PoolManager> mgr_;
  pool::AppHandle lease_;
  pool::AppHandle ballast_;
};

std::string owner_name(const ::testing::TestParamInfo<OwnerCase>& info) {
  return info.param.name;
}

void PrintTo(const OwnerCase& c, std::ostream* os) { *os << c.name; }

class ChainThrow : public ::testing::TestWithParam<OwnerCase> {};

TEST_P(ChainThrow, ThrowingEntryRethrowsOnceAfterTheFlush) {
  // Entry 2 throws at iteration 0 and entry 3 depends on it; the chain is
  // long enough that the ring reuses entry 2's slot twice, so the error
  // must be harvested before that reuse resets the slot's token.
  ChainOwner owner(GetParam());
  constexpr usize kLoops = 3 * rt::PoolJob::kChainRing + 1;
  constexpr i64 kCount = 1024;
  constexpr usize kThrows = 2;
  constexpr usize kDependent = 3;
  std::vector<HitCounts> hits;
  hits.reserve(kLoops);
  for (usize l = 0; l < kLoops; ++l) hits.emplace_back(kCount);

  LoopChain chain;
  for (usize l = 0; l < kLoops; ++l) {
    const rt::RangeBody inner = hits[l].body();
    rt::RangeBody body = inner;
    if (l == kThrows)
      body = [inner](i64 b, i64 e, const rt::WorkerInfo& w) {
        if (b == 0) throw std::runtime_error("entry 2");
        inner(b, e, w);
      };
    chain.add(kCount, ScheduleSpec::dynamic(16), std::move(body),
              l == kDependent ? static_cast<int>(kThrows) : -1);
  }

  int rethrown = 0;
  try {
    owner.run_chain(chain);
  } catch (const std::runtime_error& e) {
    ++rethrown;
    EXPECT_STREQ(e.what(), "entry 2");
    // Rethrown after the chain-end flush: every other entry already ran.
    for (usize l = 0; l < kLoops; ++l)
      if (l != kThrows && l != kDependent) hits[l].expect_exactly_once();
  }
  EXPECT_EQ(rethrown, 1);
  hits[kThrows].expect_at_most_once();
  EXPECT_EQ(hits[kThrows].hits[0].load(), 0);  // the throwing chunk
  EXPECT_EQ(hits[kDependent].executed(), 0);   // cancelled through the edge

  // The ring is healthy afterwards: a clean chain covers exactly once.
  std::vector<HitCounts> after;
  after.reserve(kLoops);
  for (usize l = 0; l < kLoops; ++l) after.emplace_back(kCount);
  LoopChain clean;
  for (usize l = 0; l < kLoops; ++l)
    clean.add(kCount, ScheduleSpec::dynamic(16), after[l].body(),
              l == kDependent ? static_cast<int>(kThrows) : -1);
  owner.run_chain(clean);
  for (auto& h : after) h.expect_exactly_once();
}

INSTANTIATE_TEST_SUITE_P(
    Owners, ChainThrow,
    ::testing::Values(OwnerCase{"team1", false, 1},
                      OwnerCase{"team2", false, 2},
                      OwnerCase{"team4", false, 4},
                      OwnerCase{"lease4", true, 4},
                      OwnerCase{"lease1", true, 1}),
    owner_name);

class ChainCancel : public ::testing::TestWithParam<OwnerCase> {};

TEST_P(ChainCancel, DeadlineExpiryMidChainCancelsEntryAndDependents) {
  ChainOwner owner(GetParam());
  constexpr i64 kFast = 3001;
  constexpr i64 kSlow = 1 << 12;  // 256 chunks x 1ms >> the 40ms deadline
  HitCounts a(kFast), b(kSlow), c(kFast), d(kFast);

  LoopChain chain;
  const int ia = chain.add(kFast, ScheduleSpec::dynamic(7), a.body());
  const int ib =
      chain.add(kSlow,
                ScheduleSpec::dynamic(16).with_deadline_ns(40'000'000),
                b.slow_body(std::chrono::microseconds(1000)), ia);
  chain.add(kFast, ScheduleSpec::dynamic(7), c.body(), ib);  // dependent
  chain.add(kFast, ScheduleSpec::static_even(), d.body());   // independent
  owner.run_chain(chain);

  a.expect_exactly_once();  // upstream of the failure: untouched
  b.expect_at_most_once();  // deadline landed mid-loop
  EXPECT_GT(b.executed(), 0);
  EXPECT_LT(b.executed(), kSlow);
  EXPECT_EQ(c.executed(), 0);  // dependency cancellation: nothing ran
  d.expect_exactly_once();     // no edge to the failure: full coverage

  // The ring is healthy afterwards: a clean chain covers exactly once.
  HitCounts after(kFast);
  LoopChain clean;
  clean.add(kFast, ScheduleSpec::dynamic(7), after.body());
  owner.run_chain(clean);
  after.expect_exactly_once();
}

TEST_P(ChainCancel, ChainWideTokenKillsInFlightAndUnpublishedEntries) {
  ChainOwner owner(GetParam());
  constexpr i64 kCount = 1 << 11;  // 128 chunks x 1ms = ~64ms+ per entry
  constexpr usize kLoops = 6;
  std::vector<HitCounts> hits;
  hits.reserve(kLoops);
  for (usize l = 0; l < kLoops; ++l) hits.emplace_back(kCount);

  CancelToken token;
  LoopChain chain;
  for (usize l = 0; l < kLoops; ++l)
    chain.add(kCount, ScheduleSpec::dynamic(16),
              hits[l].slow_body(std::chrono::microseconds(1000)));
  chain.bind_cancel(&token);

  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token.cancel();
  });
  owner.run_chain(chain);
  killer.join();

  i64 total = 0;
  for (auto& h : hits) {
    h.expect_at_most_once();
    total += h.executed();
  }
  EXPECT_LT(total, static_cast<i64>(kLoops) * kCount);
}

INSTANTIATE_TEST_SUITE_P(Owners, ChainCancel,
                         ::testing::Values(OwnerCase{"team", false, 2},
                                           OwnerCase{"lease", true, 2}),
                         owner_name);

TEST(CancelStress, RuntimeOverloadsBindTokenAndDeadline) {
  rt::RuntimeConfig config;
  config.num_threads = 2;
  config.emulate_amp = false;
  rt::Runtime runtime(platform::generic_amp(2, 2, 2.0), config);

  // run_loop overload: deadline lands mid-loop, token reports it.
  constexpr i64 kCount = 1 << 12;
  CancelToken token;
  HitCounts counts(kCount);
  runtime.run_loop(kCount, ScheduleSpec::dynamic(16),
                   counts.slow_body(std::chrono::microseconds(1000)), token,
                   /*deadline_ns=*/30'000'000);
  // The watchdog fires the construct's internal token (the caller's stays
  // un-cancelled and reusable); the observable contract is the early stop.
  counts.expect_at_most_once();
  EXPECT_GT(counts.executed(), 0);
  EXPECT_LT(counts.executed(), kCount);

  // run_chain overload: a pre-cancelled chain token runs nothing; the
  // caller's chain is bound by copy, so it stays reusable afterwards.
  CancelToken dead;
  dead.cancel();
  HitCounts chained(kCount);
  LoopChain chain;
  chain.add(kCount, ScheduleSpec::dynamic(8), chained.body());
  runtime.run_chain(chain, dead);
  EXPECT_EQ(chained.executed(), 0);

  HitCounts clean(kCount);
  CancelToken idle;
  LoopChain chain2;
  chain2.add(kCount, ScheduleSpec::dynamic(8), clean.body());
  runtime.run_chain(chain2, idle);
  clean.expect_exactly_once();
}

// --- pool: leases, repartition races, co-tenancy ---------------------------

TEST(CancelStress, AppHandleCancelStopsThePoolConstruct) {
  pool::PoolManager mgr(platform::generic_amp(2, 2, 2.0), pool_config());
  pool::AppHandle app = mgr.register_app("cancellee");
  constexpr i64 kCount = 1 << 12;
  HitCounts counts(kCount);
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    app.cancel();
  });
  app.run_loop(kCount, ScheduleSpec::dynamic(16),
               counts.slow_body(std::chrono::microseconds(1000)));
  killer.join();
  counts.expect_at_most_once();
  EXPECT_LT(counts.executed(), kCount);

  // The lease token re-arms at the next construct: full coverage again.
  HitCounts after(kCount);
  app.run_loop(kCount, ScheduleSpec::dynamic(64), after.body());
  after.expect_exactly_once();
}

TEST(CancelStress, CancellationRacesRepartitionCommits) {
  // App A runs chains (spec tokens cancelled at arbitrary points by the
  // main thread) while the arbiter churns policies, forcing repartition
  // commits between ring entries — the harvest-before-reuse path. Nothing
  // may hang, no iteration may run twice, and after the churn a clean
  // chain must cover exactly once on whatever partition A ended up with.
  pool::PoolManager mgr(platform::generic_amp(4, 4, 3.0), pool_config());
  pool::AppHandle a = mgr.register_app("racer", 1.0);
  pool::AppHandle b = mgr.register_app("ballast", 2.0);

  constexpr int kRounds = 10;
  constexpr i64 kCount = 1 << 10;
  constexpr usize kLoops = 5;
  // One token per round, all outliving both threads: the main thread may
  // cancel the current round's token at any moment without a lifetime
  // race (cancelling a finished or not-yet-started round is a no-op /
  // pre-cancelled chain — both legal outcomes here).
  std::vector<CancelToken> tokens(kRounds);
  std::atomic<int> cur_round{0};
  std::atomic<bool> done{false};

  std::thread racer([&] {
    for (int r = 0; r < kRounds; ++r) {
      cur_round.store(r, std::memory_order_release);
      std::vector<HitCounts> hits;
      hits.reserve(kLoops);
      for (usize l = 0; l < kLoops; ++l) hits.emplace_back(kCount);
      LoopChain chain;
      for (usize l = 0; l < kLoops; ++l)
        chain.add(kCount, ScheduleSpec::dynamic(16),
                  hits[l].slow_body(std::chrono::microseconds(200)),
                  l > 0 ? static_cast<int>(l) - 1 : -1);
      chain.bind_cancel(&tokens[static_cast<usize>(r)]);
      a.run_chain(chain);
      for (auto& h : hits) h.expect_at_most_once();
    }
    done.store(true, std::memory_order_release);
  });

  const pool::Policy policies[] = {pool::Policy::kProportional,
                                   pool::Policy::kBigCorePriority,
                                   pool::Policy::kEqualShare};
  int spin = 0;
  while (!done.load(std::memory_order_acquire)) {
    mgr.set_policy(policies[spin % 3]);
    mgr.repartition();
    if (spin % 2 == 0)
      tokens[static_cast<usize>(cur_round.load(std::memory_order_acquire))]
          .cancel();
    if (spin % 3 == 0) a.cancel();  // lease-level cancel racing everything
    ++spin;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  racer.join();

  HitCounts clean(kCount);
  LoopChain chain;
  chain.add(kCount, ScheduleSpec::dynamic(7), clean.body());
  a.run_chain(chain);
  clean.expect_exactly_once();
}

TEST(CancelStress, CoTenantSurvivesNeighbourFailures) {
  // App A keeps failing (throws, deadline-cancelled stalls); app B's lease
  // must keep delivering exactly-once loops throughout — a failure domain
  // is one lease, never the shared pool.
  pool::PoolManager mgr(platform::generic_amp(4, 4, 3.0), pool_config());
  pool::AppHandle a = mgr.register_app("failing");
  pool::AppHandle b = mgr.register_app("healthy");

  std::atomic<bool> stop{false};
  std::atomic<int> a_exceptions{0};
  std::thread failing([&] {
    constexpr i64 kCount = 1 << 10;
    while (!stop.load(std::memory_order_acquire)) {
      try {
        a.run_loop(kCount, ScheduleSpec::dynamic(16),
                   [](i64 b0, i64, const rt::WorkerInfo&) {
                     if (b0 == 512) throw std::runtime_error("boom");
                   });
      } catch (const std::runtime_error&) {
        a_exceptions.fetch_add(1, std::memory_order_relaxed);
      }
      HitCounts scratch(kCount);
      a.run_loop(kCount,
                 ScheduleSpec::dynamic(16).with_deadline_ns(5'000'000),
                 scratch.slow_body(std::chrono::microseconds(500)));
      scratch.expect_at_most_once();
    }
  });

  constexpr int kHealthyLoops = 40;
  constexpr i64 kCount = 513;
  for (int l = 0; l < kHealthyLoops; ++l) {
    HitCounts counts(kCount);
    b.run_loop(kCount, ScheduleSpec::dynamic(4), counts.body());
    counts.expect_exactly_once();
  }
  stop.store(true, std::memory_order_release);
  failing.join();
  EXPECT_GT(a_exceptions.load(), 0);
}

}  // namespace
}  // namespace aid
