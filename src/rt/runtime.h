// Process-wide runtime — libaid's public entry point for applications.
//
// Mirrors how an OpenMP program meets libgomp: nothing is constructed
// explicitly; the first parallel loop materializes a team configured from
// the environment (AID_SCHEDULE, AID_NUM_THREADS, AID_AMP_AFFINITY,
// AID_PLATFORM, ...). Loops that do not pass an explicit ScheduleSpec use
// the environment's schedule — the observable behavior of the paper's GCC
// change (default schedule static → runtime, Sec. 4.1).
//
// With AID_POOL=1 the runtime owns no private worker team: it leases a
// core partition from the process-wide PoolManager (src/pool/), so
// several applications in one process share a single worker pool and the
// same unmodified code adapts to whatever partition the arbiter grants —
// the paper's Sec. 4.3 portability story. Loop execution is identical
// either way; use Runtime::run_loop / rt::run_loop / rt::parallel_for,
// which route to the team or the lease transparently.
//
// Quickstart:
//   #include "rt/runtime.h"
//   aid::rt::parallel_for(0, n, 1, [&](aid::i64 i, const aid::rt::WorkerInfo&) {
//     out[i] = f(in[i]);
//   });
#pragma once

#include <memory>

#include "common/cancel.h"
#include "platform/platform.h"
#include "rt/runtime_config.h"
#include "rt/team.h"

namespace aid::pipeline {
class LoopChain;
}  // namespace aid::pipeline

namespace aid::pool {
class AppHandle;
}  // namespace aid::pool

namespace aid::rt {

class Runtime {
 public:
  /// The lazily-initialized global runtime (thread-safe construction).
  static Runtime& instance();

  /// Construct an isolated runtime (tests, multi-platform experiments).
  /// With config.use_pool, the runtime leases its partition from the
  /// process-wide PoolManager::instance() instead of building a team.
  Runtime(platform::Platform platform, RuntimeConfig config);
  ~Runtime();

  /// Execute `count` canonical iterations on the team or the leased pool
  /// partition. This is the construct every public loop entry routes to.
  ///
  /// Failure domain (src/rt/README.md "Failure model"): spec.cancel and
  /// spec.deadline_ns make the construct cancellable / deadline-bounded;
  /// a throwing body rethrows here, on the caller, after the construct
  /// wound down — the runtime stays fully usable afterwards.
  void run_loop(i64 count, const sched::ScheduleSpec& spec,
                const RangeBody& body);

  /// run_loop with an explicit cancellation token and/or deadline — sugar
  /// for spec.with_cancel(&cancel).with_deadline_ns(deadline_ns). The
  /// token may be fired from any thread while the loop runs.
  void run_loop(i64 count, const sched::ScheduleSpec& spec,
                const RangeBody& body, CancelToken& cancel,
                i64 deadline_ns = 0);

  /// Execute a pipeline::LoopChain with nowait semantics on the team or
  /// the leased pool partition (pipelined over the generation docks; in
  /// pool mode, repartitions commit between ring entries). Blocks until
  /// the whole chain completes. See src/pipeline/README.md.
  void run_chain(const pipeline::LoopChain& chain);

  /// run_chain with a chain-wide cancellation token and/or per-entry
  /// deadline: every entry that names no spec token/deadline of its own
  /// inherits these (the chain is copied once at launch to bind them —
  /// pipeline::LoopChain::bind_cancel on a caller-owned chain avoids the
  /// copy). Cancelling kills every in-flight and not-yet-published entry;
  /// dependents of a cancelled entry cancel through the ring as usual.
  void run_chain(const pipeline::LoopChain& chain, CancelToken& cancel,
                 i64 deadline_ns = 0);

  template <typename F>
  void parallel_for(i64 start, i64 end, i64 step,
                    const sched::ScheduleSpec& spec, F&& f) {
    const sched::IterationSpace space(start, end, step);
    run_loop(space.count(), spec,
             [&space, &f](i64 b, i64 e, const WorkerInfo& w) {
               for (i64 c = b; c < e; ++c) f(space.value_of(c), w);
             });
  }

  /// Current thread-to-core layout: the team's (stable), or a snapshot of
  /// the leased partition (may change at loop boundaries as the pool
  /// repartitions).
  [[nodiscard]] platform::TeamLayout layout() const;
  [[nodiscard]] int nthreads() const;

  /// Pin the layout across several loops (a parallel region): in pool
  /// mode this defers repartitioning until exit_region(); in team mode it
  /// is a no-op. The returned reference is valid until exit_region().
  const platform::TeamLayout& enter_region();
  void exit_region();

  /// Stats of the most recent loop (SF estimate, pool removals, ...).
  [[nodiscard]] sched::SchedulerStats last_loop_stats() const;

  /// The per-shape scheduler cache constructs on this runtime draw from:
  /// the team's, or the leased pool partition's (invalidated by the
  /// manager whenever the partition moves). The GOMP work-share ring
  /// acquires its per-construct schedulers here, so a region's repeated
  /// loop shapes are re-armed instead of reallocated. Valid while a
  /// region pins the layout (enter_region/exit_region).
  [[nodiscard]] sched::SchedulerCache& scheduler_cache();

  /// Spin/yield budgets of the owning engine's waits (the team's, or the
  /// shared pool's); the GOMP work-share ring waits with the same.
  [[nodiscard]] WaitBudgets wait_budgets() const;

  [[nodiscard]] bool uses_pool() const { return lease_ != nullptr; }

  /// The private team (non-pool mode only; CHECK-fails under AID_POOL=1 —
  /// use run_loop()/layout()/nthreads(), which work in both modes).
  [[nodiscard]] Team& team();

  [[nodiscard]] const RuntimeConfig& config() const { return config_; }
  [[nodiscard]] const platform::Platform& platform() const {
    return platform_;
  }

  /// The schedule a loop without an explicit spec receives (AID_SCHEDULE).
  [[nodiscard]] const sched::ScheduleSpec& default_schedule() const {
    return config_.schedule;
  }

 private:
  platform::Platform platform_;
  RuntimeConfig config_;
  std::unique_ptr<Team> team_;             // private-team mode
  std::unique_ptr<pool::AppHandle> lease_; // shared-pool mode
};

/// Platform for the current process: AID_PLATFORM when set and valid,
/// otherwise the paper's Platform A shape (4 small + 4 big).
[[nodiscard]] platform::Platform platform_from_env();

/// Run a canonical-range loop on the global runtime with the environment's
/// schedule (the unmodified-application path).
void run_loop(i64 count, const RangeBody& body);
/// Same with an explicit schedule (the schedule-clause path).
void run_loop(i64 count, const sched::ScheduleSpec& spec,
              const RangeBody& body);

/// Per-iteration parallel_for over a user iteration space.
template <typename F>
void parallel_for(i64 start, i64 end, i64 step, F&& f) {
  Runtime& r = Runtime::instance();
  r.parallel_for(start, end, step, r.default_schedule(), std::forward<F>(f));
}

template <typename F>
void parallel_for(i64 start, i64 end, i64 step,
                  const sched::ScheduleSpec& spec, F&& f) {
  Runtime::instance().parallel_for(start, end, step, spec,
                                   std::forward<F>(f));
}

}  // namespace aid::rt
