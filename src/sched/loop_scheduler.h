// Scheduler interface.
//
// One LoopScheduler instance embodies one work-sharing construct (libgomp's
// work_share). Workers repeatedly call next() — the analog of
// GOMP_loop_<sched>_next() — until it returns false, then hit the implicit
// barrier owned by the caller (runtime or simulator).
//
// Instances are reusable: reset() re-arms the scheduler for a new execution
// of the same loop shape without reallocating per-thread state, because
// data-parallel applications execute the same loops thousands of times.
#pragma once

#include <memory>
#include <string_view>

#include "platform/team_layout.h"
#include "sched/iteration_space.h"
#include "sched/schedule_spec.h"
#include "sched/thread_context.h"

namespace aid::sched {

/// Observability snapshot used by tests, the simulator's overhead accounting
/// and the Fig. 9 experiments.
struct SchedulerStats {
  i64 pool_removals = 0;   ///< fetch-add / CAS removals from the shared pool
  double estimated_sf = 0.0;  ///< AID: SF from the sampling phase (0 if n/a)
  i64 aid_phases = 0;      ///< AID-dynamic: recomputes of R
  // Sharded-pool breakdown (sharded_work_share.h). For a single-shard
  // pool every removal is local and the other two stay 0.
  i64 local_removals = 0;  ///< removals served by the taker's home shard
  i64 steal_removals = 0;  ///< removals served by a foreign shard
  i64 shard_rebalances = 0;  ///< contiguous blocks bulk-migrated
};

class LoopScheduler {
 public:
  virtual ~LoopScheduler() = default;

  LoopScheduler(const LoopScheduler&) = delete;
  LoopScheduler& operator=(const LoopScheduler&) = delete;

  /// Remove the calling worker's next range. Returns false when the worker
  /// is done with this loop (pool exhausted / allotment complete).
  /// Thread-safe: called concurrently by all team workers.
  virtual bool next(ThreadContext& tc, IterRange& out) = 0;

  /// Re-arm for a fresh execution with `count` canonical iterations. Must
  /// only be called while no worker is inside next() (i.e. between loop
  /// executions, after the team barrier).
  virtual void reset(i64 count) = 0;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual SchedulerStats stats() const = 0;

  /// Successful pool removals attributed to one thread. The simulator
  /// polls this after every next() call to detect pool touches — it must
  /// stay O(1), not walk all per-thread counter slots like
  /// stats().pool_removals does. Pool-backed schedulers override it;
  /// the default covers schedulers that never touch a pool.
  [[nodiscard]] virtual i64 pool_removals_of(int tid) const {
    (void)tid;
    return 0;
  }

  /// Iterations not yet handed out of this construct's pool — a racy
  /// diagnostic read (the watchdog's wedge dump quotes it; nothing
  /// schedules off it). Pool-backed schedulers override; pool-less ones
  /// (static) report 0 because their remaining work is per-thread state.
  [[nodiscard]] virtual i64 remaining() const { return 0; }

 protected:
  LoopScheduler() = default;
};

/// Create a scheduler for `count` iterations on the given team. The layout
/// must outlive the scheduler. Any ScheduleKind is accepted; AID methods on a
/// uniform team degenerate gracefully (documented per scheduler).
/// This overload arms a classic single pool (the simulator's model of the
/// paper's libgomp work share).
[[nodiscard]] std::unique_ptr<LoopScheduler> make_scheduler(
    const ScheduleSpec& spec, i64 count, const platform::TeamLayout& layout);

/// The runtime's arm (SchedulerCache's miss path, under the rt::WorkerPool
/// engine of Team and leases and the GOMP surface): the same scheduler, and
/// for dynamic and the three AID kinds a pool with one shard per thread of
/// `layout`, shard s being thread s (sharded_work_share.h). The shards
/// therefore follow the layout the scheduler was built from: a new
/// partition means a new scheduler, hence new shards.
[[nodiscard]] std::unique_ptr<LoopScheduler> make_sharded_scheduler(
    const ScheduleSpec& spec, i64 count, const platform::TeamLayout& layout);

}  // namespace aid::sched
