// Thread team: the real-thread work-sharing runtime.
//
// A Team runs nthreads−1 persistent worker threads (the master participates
// as tid 0, as in libgomp). run_loop() is the work-sharing construct: every
// team member repeatedly pulls ranges from the loop's scheduler — the
// GOMP_loop_*_start/next protocol — executes the body on them, and joins an
// implicit barrier. run_chain() is the pipelined multi-construct form: a
// whole pipeline::LoopChain is published into a ring of in-flight entries
// and team members flow from loop k to loop k+1 with nowait semantics.
//
// The Team is a thin owner of the runtime's one dispatch engine
// (rt/worker_pool.h — the same engine PoolManager leases partitions of):
// it holds one PoolJob, the layout, its scheduler cache and watchdog, and
// opens the engine's window over its layout once, at construction. Every
// scheduler the cache builds for dynamic or an AID schedule takes from a
// pool with one shard per thread of the layout (sched::
// make_sharded_scheduler). The fork/join path is lock-free in steady state
// (see src/rt/README.md).
//
// Thread-to-core semantics come from a TeamLayout (SB/BS mapping). On hosts
// that are not real AMPs, per-core Throttles emulate the asymmetry
// (rt/throttle.h); on a real AMP, enable AID_BIND_THREADS and disable
// AID_EMULATE_AMP to use hardware asymmetry via affinity.
#pragma once

#include <atomic>

#include "platform/team_layout.h"
#include "rt/watchdog.h"
#include "rt/worker_pool.h"
#include "sched/loop_scheduler.h"
#include "sched/scheduler_cache.h"

namespace aid::rt {

class Team {
 public:
  /// In-flight constructs the ring holds: a run_chain keeps up to this many
  /// loops outstanding before the publisher must wait for the oldest.
  static constexpr u64 kChainRing = PoolJob::kChainRing;

  /// The layout binds nthreads (0 = all cores) of `platform` to cores per
  /// `mapping`.
  Team(const platform::Platform& platform, int nthreads,
       platform::Mapping mapping, bool emulate_amp = true,
       bool bind_threads = false);

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  /// Execute `count` canonical iterations under `spec`. Blocks until the
  /// implicit barrier completes. Not reentrant (no nested regions).
  ///
  /// Failure domain (src/rt/README.md "Failure model"):
  ///  * spec.cancel — cooperative cancellation observed at every
  ///    chunk-take boundary (latency: one chunk); remaining iterations
  ///    are dropped, the barrier still closes, the construct returns
  ///    normally.
  ///  * spec.deadline_ns — the team watchdog cancels the construct when
  ///    the deadline passes (CancelReason::kDeadline).
  ///  * a throwing body — the first exception is captured, cancels the
  ///    construct, and rethrows HERE (on the master) after the barrier
  ///    closed and the scheduler lease was released; workers never unwind.
  void run_loop(i64 count, const sched::ScheduleSpec& spec,
                const RangeBody& body);

  /// Execute a chain of loops with nowait semantics: loop k+1 is dispatched
  /// the moment it is published, each team member advances to it as soon as
  /// its own share of loop k drains, and only `depends_on` edges (full
  /// predecessor completion) gate entry. Blocks until every loop of the
  /// chain has completed (the chain-end flush), then rethrows the chain's
  /// first entry exception, if any. Not reentrant, and not concurrent with
  /// run_loop.
  void run_chain(const pipeline::LoopChain& chain);

  /// Per-iteration convenience over a user iteration space.
  template <typename F>
  void parallel_for(i64 start, i64 end, i64 step,
                    const sched::ScheduleSpec& spec, F&& f) {
    const sched::IterationSpace space(start, end, step);
    run_loop(space.count(), spec,
             [&space, &f](i64 b, i64 e, const WorkerInfo& w) {
               for (i64 c = b; c < e; ++c) f(space.value_of(c), w);
             });
  }

  [[nodiscard]] const platform::TeamLayout& layout() const { return layout_; }
  [[nodiscard]] int nthreads() const { return layout_.nthreads(); }

  /// Stats of the most recent loop (SF estimate, pool removals, ...). For a
  /// chain: the final entry's stats.
  [[nodiscard]] sched::SchedulerStats last_loop_stats() const {
    return last_stats_;
  }

  /// Per-shape scheduler cache every construct of this team draws from
  /// (run_loop, run_chain entries, and the GOMP work-share ring via
  /// Runtime::scheduler_cache). Never invalidated: the team's layout is
  /// fixed for its lifetime.
  [[nodiscard]] sched::SchedulerCache& scheduler_cache() {
    return sched_cache_;
  }

  /// The spin/yield budgets of the team's waits (sized for nthreads); the
  /// GOMP surface waits on its work-share gates with the same.
  [[nodiscard]] WaitBudgets wait_budgets() const { return pool_.budgets(); }

 private:
  platform::TeamLayout layout_;
  /// Fixed for the team's lifetime, as is the layout — so it is never
  /// invalidated.
  sched::SchedulerCache sched_cache_;
  /// Declared before pool_: destruction runs in reverse, so the engine
  /// joins every worker before the job (whose gates a worker's final
  /// check_in may still be touching) is freed.
  PoolJob job_;
  WorkerPool pool_;
  sched::SchedulerStats last_stats_;
  std::atomic<bool> in_loop_{false};  // reentrancy guard (loop OR chain)
  /// Deadline watchdog (lazy thread; armed only for deadline'd specs).
  /// Declared last so it is destroyed FIRST: its monitor thread may read
  /// the job's gates/tokens, which must still be alive while it joins.
  Watchdog watchdog_;
  WorkerPool::Owner owner_{&job_, &sched_cache_, nullptr, &watchdog_};
};

}  // namespace aid::rt
