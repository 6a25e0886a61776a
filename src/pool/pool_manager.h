// Process-wide pool manager: apps lease core partitions from one shared
// worker pool (the paper's Sec. 4.3 / Sec. 5C multi-application scenario,
// with the PoolManager playing the OS's arbitration role).
//
// Each registered application holds an AppHandle — a lease on a subset of
// the machine's cores, expressed as a TeamLayout so the AID schedulers
// consume it unchanged. The manager arbitrates cores across apps with a
// pool::Policy and *repartitions dynamically*: targets are recomputed on
// every registration/unregistration/policy change, and each app adopts its
// new allotment at a loop boundary (or immediately while idle). Execution
// runs on the runtime's dispatch engine (rt/worker_pool.h, shared with
// rt::Team): a revoked core involves no thread teardown — its worker just
// stops receiving that app's jobs. Each lease reads its layout from the
// manager directly; AppHandle::allotment() is the live {big, small} view.
//
// See src/pool/README.md for the design note (arbitration policies and
// the revoke-at-loop-boundary invariant).
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "platform/platform.h"
#include "platform/team_layout.h"
#include "pool/policy.h"
#include "rt/watchdog.h"
#include "rt/worker_pool.h"
#include "sched/schedule_spec.h"
#include "sched/scheduler_cache.h"

namespace aid::pipeline {
class LoopChain;
}  // namespace aid::pipeline

namespace aid::pool {

class PoolManager;

/// Per-app {big, small} thread counts — what the paper's Sec. 4.3 shared
/// region would tell the runtime.
struct AppAllotment {
  int threads_on_big = 0;
  int threads_on_small = 0;
  [[nodiscard]] int total() const { return threads_on_big + threads_on_small; }
};

/// An application's lease on a pool partition. Move-only; releasing (or
/// destroying) the handle returns the cores to the pool and triggers a
/// repartition among the remaining apps. All methods are thread-safe
/// against the manager, but one handle must not run concurrent loops.
class AppHandle {
 public:
  AppHandle() = default;
  ~AppHandle();

  AppHandle(AppHandle&& other) noexcept;
  AppHandle& operator=(AppHandle&& other) noexcept;
  AppHandle(const AppHandle&) = delete;
  AppHandle& operator=(const AppHandle&) = delete;

  /// Execute `count` canonical iterations on the current partition.
  /// Adopts any pending repartition first (the loop boundary), then blocks
  /// until the partition's implicit barrier completes.
  ///
  /// Failure domain (src/rt/README.md "Failure model"): spec.cancel /
  /// spec.deadline_ns / cancel() cancel cooperatively at chunk-take
  /// boundaries; a throwing body rethrows HERE after the barrier closed
  /// and the lease's loop state was released, so the lease (and its
  /// co-tenants) stay fully usable afterwards.
  void run_loop(i64 count, const sched::ScheduleSpec& spec,
                const rt::RangeBody& body);

  /// Execute a chain of loops with nowait semantics on the leased
  /// partition (the engine's one chain driver, as for rt::Team::run_chain):
  /// partition members flow from loop
  /// k to loop k+1 without an inter-construct barrier, and pending
  /// repartitions are committed *between ring entries* — the chain drains
  /// its published loops, adopts the new partition, and continues — rather
  /// than only between whole chains. Blocks until every loop completes.
  void run_chain(const pipeline::LoopChain& chain);

  /// Per-iteration convenience over a user iteration space.
  template <typename F>
  void parallel_for(i64 start, i64 end, i64 step,
                    const sched::ScheduleSpec& spec, F&& f) {
    const sched::IterationSpace space(start, end, step);
    run_loop(space.count(), spec,
             [&space, &f](i64 b, i64 e, const rt::WorkerInfo& w) {
               for (i64 c = b; c < e; ++c) f(space.value_of(c), w);
             });
  }

  /// Pin the current partition until end_region(): pending grants/revokes
  /// are adopted now and then deferred until the region closes, so a
  /// multi-loop construct (e.g. a GOMP parallel region) sees one stable
  /// layout. Returns that layout; the reference stays valid for the
  /// region's duration.
  const platform::TeamLayout& begin_region();
  void end_region();

  /// Snapshot of the current partition layout.
  [[nodiscard]] platform::TeamLayout layout() const;
  /// {threads_on_big, threads_on_small} of the current partition.
  [[nodiscard]] AppAllotment allotment() const;
  [[nodiscard]] sched::SchedulerStats last_loop_stats() const;
  [[nodiscard]] int nthreads() const { return allotment().total(); }

  /// The lease's per-shape scheduler cache (sched/scheduler_cache.h):
  /// every construct on this partition — run_loop, chain entries, GOMP
  /// work shares — re-arms a cached instance instead of building one. The
  /// manager invalidates it whenever the partition moves (cached
  /// instances bake in the old layout's thread count and per-thread shards),
  /// so hold the reference only while a loop or region pins the layout.
  [[nodiscard]] sched::SchedulerCache& scheduler_cache();

  /// Spin/yield budgets of the shared engine's waits (sized for the
  /// platform's core count); the GOMP surface waits with the same.
  [[nodiscard]] rt::WaitBudgets wait_budgets() const;

  /// Cancel the construct currently in flight on this lease (run_loop or
  /// every in-flight entry of a run_chain), cooperatively: participants
  /// observe it at their next chunk-take boundary and the construct
  /// returns normally with the remaining iterations dropped. Callable
  /// from any thread. The lease's token is re-armed at the next
  /// construct's entry, so a cancel that loses the race with that entry
  /// is a no-op (cooperative semantics — there is nothing to cancel yet).
  void cancel();

  [[nodiscard]] bool valid() const { return mgr_ != nullptr; }
  /// Early unregister (idempotent; the destructor calls it too).
  void release();

 private:
  friend class PoolManager;
  AppHandle(PoolManager* mgr, u64 id) : mgr_(mgr), id_(id) {}

  PoolManager* mgr_ = nullptr;
  u64 id_ = 0;
};

class PoolManager {
 public:
  struct Config {
    Policy policy = Policy::kEqualShare;
    bool emulate_amp = true;
    bool bind_threads = false;
  };

  /// The lazily-initialized process-wide manager, configured from the
  /// environment (AID_PLATFORM, AID_POOL_POLICY, AID_EMULATE_AMP, ...).
  static PoolManager& instance();

  /// Construct an isolated manager (tests, multi-pool experiments).
  PoolManager(platform::Platform platform, Config config);
  explicit PoolManager(platform::Platform platform)
      : PoolManager(std::move(platform), Config()) {}
  ~PoolManager();

  PoolManager(const PoolManager&) = delete;
  PoolManager& operator=(const PoolManager&) = delete;

  /// Register an application; returns its lease. `weight` feeds the
  /// proportional / big-core-priority policies. Registration triggers a
  /// repartition; the new app's cores materialize as co-running apps reach
  /// loop boundaries (immediately when they are idle).
  [[nodiscard]] AppHandle register_app(std::string name, double weight = 1.0);

  /// Switch arbitration policy and repartition.
  void set_policy(Policy policy);
  [[nodiscard]] Policy policy() const;

  /// Recompute every app's target allotment and commit for idle apps.
  void repartition();

  [[nodiscard]] const platform::Platform& platform() const {
    return platform_;
  }
  [[nodiscard]] int registered_apps() const;
  /// Worker threads spawned so far (monotonic: workers persist across
  /// repartitions). With stable partitions this is num_cores - apps
  /// (masters participate); under master-core migration it can grow up to
  /// num_cores - 1 — the globally fastest core is always some partition's
  /// master, so it never spawns. Versus apps * (num_cores - 1) workers
  /// for private per-app teams.
  [[nodiscard]] int spawned_workers() const {
    return pool_.spawned_workers();
  }
  /// spawned workers + registered app threads: the pool's total footprint.
  [[nodiscard]] int total_threads() const;

 private:
  friend class AppHandle;

  struct App {
    u64 id = 0;
    std::string name;
    double weight = 1.0;
    std::vector<int> current;  ///< owned core ids (sorted)
    std::vector<int> pending;  ///< target core ids (sorted)
    bool in_loop = false;
    int region_depth = 0;  ///< begin_region nesting; >0 defers adoption
    std::unique_ptr<platform::TeamLayout> layout;  // built over `current`
    /// Per-shape scheduler cache for this lease; invalidated in adopt()
    /// whenever the partition actually moves.
    std::unique_ptr<sched::SchedulerCache> cache;
    // Workers touch the job's completion words briefly after the app's
    // last join, so it is recycled through retired_ on unregister, never
    // freed before the manager.
    std::unique_ptr<rt::PoolJob> job;
    sched::SchedulerStats last_stats;
    /// The lease-wide cancellation parent (AppHandle::cancel): every
    /// construct on this lease binds its per-entry token to it. Reset at
    /// each construct's entry (under mutex_, before anything is
    /// published), so one cancel kills at most one construct.
    CancelToken cancel_token;
  };

  App& app_of(u64 id);
  const App& app_of(u64 id) const;
  /// Recompute `pending` for every app from the policy (mutex held).
  void compute_targets();
  /// `pending` minus cores other apps still hold (mutex held).
  [[nodiscard]] std::vector<int> achievable_of(const App& app) const;
  /// Would adopt() change this app's partition right now? (mutex held;
  /// the chain executor's mid-chain commit probe).
  [[nodiscard]] bool can_adopt_now(const App& app) const;
  /// current := pending minus cores held by others; rebuild the layout
  /// when it changed (mutex held).
  void adopt(App& app);
  /// Fixpoint adoption over all idle, region-free apps (mutex held):
  /// shrinks free cores, which lets subsequent grows succeed.
  void commit_idle();

  /// A construct's entry — the loop boundary: adopt pending grants (waiting
  /// while a draining neighbour still holds every granted core), mark the
  /// app in flight, re-arm its cancel parent and open the engine window on
  /// its partition.
  rt::WorkerPool::Owner begin_construct(u64 id);
  /// A construct's exit: record stats, clear in-flight, commit.
  void end_construct(u64 id, const sched::SchedulerStats& stats);

  void run_loop(u64 id, i64 count, const sched::ScheduleSpec& spec,
                const rt::RangeBody& body);
  void run_chain(u64 id, const pipeline::LoopChain& chain);
  void unregister(u64 id);

  platform::Platform platform_;
  Config config_;
  mutable std::mutex mutex_;
  std::condition_variable granted_;  ///< signaled when cores are released
  // apps_/retired_ are declared BEFORE pool_ deliberately: destruction
  // runs in reverse, so ~WorkerPool joins every worker before any PoolJob
  // is freed (rt::Team follows the same rule). A worker's last act on an
  // entry is the completion gate's check_in (an atomic read of the waiters
  // word can still be in flight when the master's wait returns) — freeing
  // the job before the join is a use-after-free the CI tsan leg catches.
  std::map<u64, std::unique_ptr<App>> apps_;  // keyed by registration order
  /// Recycled jobs (see App); bounds allocation at the peak concurrent
  /// app count under register/release churn.
  std::vector<std::unique_ptr<rt::PoolJob>> retired_;
  rt::WorkerPool pool_;
  /// Deadline watchdog shared by every lease (lazy thread; armed only for
  /// deadline'd specs). Declared after pool_ so it is destroyed FIRST:
  /// its monitor thread may read entry gates/tokens inside PoolJobs,
  /// which outlive it (apps_/retired_ are destroyed after pool_).
  rt::Watchdog watchdog_;
  u64 next_id_ = 1;
  /// Bumps (under mutex_) whenever targets are recomputed or any app's
  /// partition moves — everything that can change can_adopt_now() for
  /// anybody. Lets the chain hook's per-entry commit probe stay lock-free
  /// until something actually happened.
  std::atomic<u64> targets_epoch_{0};
};

}  // namespace aid::pool
