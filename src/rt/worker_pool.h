// The runtime's dispatch engine: one lazily-spawned persistent worker per
// platform core, dispatchable per *partition* (a TeamLayout over any subset
// of the cores). It has two owners:
//
//   * rt::Team opens ONE window over its whole layout at construction and
//     keeps it for its lifetime, so each of its constructs is stage entry →
//     publish → participate → wait.
//   * pool::PoolManager shares one engine between app leases: it opens a
//     window on the lease's partition at every construct entry and after
//     every mid-chain repartition commit.
//
// Dispatch is a per-core generation dock (a distributed sense-reversing
// barrier: each worker's "sense" is the last generation it observed) plus
// a shared sleep epoch, so one futex broadcast wakes every sleeper. Each
// owner's PoolJob carries a ring of kChainRing in-flight entries keyed by
// a monotone entry sequence; a *window* maps one partition's dock
// generations onto those sequences through a {base_gen, base_seq} pair.
// A worker that observes its dock at generation g executes every entry in
// (last-seen, g] in order — which is what lets a chain of loops flow with
// nowait semantics while stragglers still drain earlier loops. Completion
// is the per-entry CompletionGate (common/completion_gate.h); cancellation
// and the first body exception travel in the per-entry CancelToken.
//
// The calling thread (the owner's master) participates as partition tid 0
// on layout.core_of(0), as in libgomp: its core never gets a worker, and a
// single-core partition runs serially with zero dispatches.
//
// Ownership contract (enforced by the owners, assumed here): each core is
// published to by at most one master at a time, and a window is replaced
// only after every entry published through it has completed. Design note:
// src/rt/README.md "Dispatch"; ring protocol: src/pipeline/README.md.
#pragma once

#include <array>
#include <atomic>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/cancel.h"
#include "common/completion_gate.h"
#include "common/padded.h"
#include "common/time_source.h"
#include "platform/platform.h"
#include "platform/team_layout.h"
#include "rt/throttle.h"
#include "rt/watchdog.h"
#include "sched/loop_scheduler.h"
#include "sched/scheduler_cache.h"

namespace aid::pipeline {
class LoopChain;
}  // namespace aid::pipeline

namespace aid::rt {

/// Per-worker facts exposed to loop bodies.
struct WorkerInfo {
  int tid = 0;
  int core_type = 0;
  double speed = 1.0;
};

/// A loop body invoked once per scheduler-assigned range of canonical
/// iterations [begin, end). Bodies must be thread-safe across disjoint
/// ranges (the usual OpenMP contract).
using RangeBody = std::function<void(i64 begin, i64 end, const WorkerInfo&)>;

/// Spin and sched_yield budgets of the runtime's waits (common/spin_wait.h).
struct WaitBudgets {
  i32 spin = 0;
  i32 yield = 0;
};

/// Budgets for waits among `nthreads` threads: the oversubscription-aware
/// defaults, overridden by AID_FORKJOIN_SPIN / AID_FORKJOIN_YIELD. The one
/// place those variables are read.
[[nodiscard]] WaitBudgets wait_budgets(int nthreads);

/// One owner's in-flight dispatch state: a ring of chain entries keyed by a
/// monotone sequence number (a plain run_loop is a chain of one). Workers
/// touch an entry's completion words briefly after the master's final wait
/// returns, so a job must outlive the engine's workers: owners declare it
/// before the engine (Team) or park retired jobs (PoolManager).
struct PoolJob {
  /// In-flight constructs the ring holds before the publisher must wait for
  /// the oldest to drain. The one ring depth of the runtime: Team, leases
  /// and the GOMP work-share ring all read it.
  static constexpr u64 kChainRing = 8;

  /// One in-flight construct. `sched`/`body`/`dep_seq` are plain fields
  /// ordered by the dock generations' release-stores; the gate's monotone
  /// watermark makes a dependency wait on an already-reused slot return
  /// at once instead of latching onto the new occupant's countdown.
  struct Entry {
    sched::LoopScheduler* sched = nullptr;
    const RangeBody* body = nullptr;
    u64 dep_seq = 0;  ///< entry sequence that must complete first (0 = none)
    CompletionGate gate;
    /// The occupant's cancellation token: reset + re-bound at staging (the
    /// ring reuse guard already held), read at every chunk take, harvested
    /// before the slot is reused or the construct returns.
    CancelToken token;
  };

  /// The partition of the open window (stable for the window's lifetime;
  /// every participant reads it). The ring's cache-line-aligned entries
  /// keep it off the line of next_seq, which the master bumps per publish.
  const platform::TeamLayout* layout = nullptr;
  std::array<Entry, kChainRing> ring;
  /// Next entry sequence to publish (master-only; monotone for the job's
  /// lifetime, so watermarks never go backwards). 0 means "no dependency".
  u64 next_seq = 1;

  [[nodiscard]] Entry& entry_of(u64 seq) { return ring[seq % kChainRing]; }
};

// The cache retains this many idle instances per shape precisely so a chain
// can hold a full ring of same-shape constructs in flight; a deeper ring
// would silently reintroduce steady-state construction misses.
static_assert(PoolJob::kChainRing <= sched::SchedulerCache::kInstancesPerShape,
              "chain-ring depth exceeds SchedulerCache per-shape retention");

class WorkerPool {
 public:
  struct Options {
    bool emulate_amp = true;   ///< throttle small cores on symmetric hosts
    bool bind_threads = false; ///< best-effort per-core affinity
  };

  /// What a construct runs against, supplied by its owner: the job whose
  /// window is open, the scheduler cache of that window's layout, the
  /// owner-wide cancel parent (a lease's; Team has none) and the watchdog
  /// deadlines are armed on.
  struct Owner {
    PoolJob* job = nullptr;
    sched::SchedulerCache* cache = nullptr;
    const CancelToken* cancel = nullptr;
    Watchdog* watchdog = nullptr;
  };

  /// The between-entries hook of run_chain; only PoolManager fills it in,
  /// to commit repartitions mid-chain. `pending` is probed before every
  /// publish: once it returns true the driver stops publishing, runs the
  /// master's remaining shares, drains every published entry and calls
  /// `commit`, which must re-open the owner's window on the new partition.
  struct ChainHook {
    std::function<bool()> pending;
    std::function<void(const Owner&)> commit;
  };

  /// `budgets` size every dispatch and completion wait of this engine.
  WorkerPool(const platform::Platform& platform, Options options,
             WaitBudgets budgets);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Point every worker core of `layout` at `job`, mapping the next
  /// published dock generations onto job.next_seq, job.next_seq + 1, ...;
  /// bind the calling master to layout.core_of(0) (bind_threads) and spawn
  /// the partition's missing workers. Nothing is dispatched yet. Every
  /// entry published through the cores' previous window must be complete.
  void open_window(const platform::TeamLayout& layout, PoolJob& job);

  /// Execute `count` canonical iterations under `spec` on the owner's open
  /// window, the caller participating as tid 0. Blocks until the
  /// construct's gate closes; writes its scheduler's stats. A throwing
  /// body is captured and RETURNED (never thrown), so the owner can release
  /// its own state before rethrowing. spec.deadline_ns arms the owner's
  /// watchdog for the construct.
  [[nodiscard]] std::exception_ptr run_loop(const Owner& owner, i64 count,
                                            const sched::ScheduleSpec& spec,
                                            const RangeBody& body,
                                            sched::SchedulerStats& stats);

  /// Execute a chain of loops with nowait semantics on the owner's open
  /// window: the master publishes entries while ring slots are free and
  /// otherwise works through its own shares in chain order; only
  /// depends_on edges gate entry, and it blocks only at the chain-end
  /// flush. `hook` may be null. Returns the chain's first entry error
  /// (after the flush); `stats` gets the final entry's stats.
  [[nodiscard]] std::exception_ptr run_chain(const Owner& owner,
                                             const pipeline::LoopChain& chain,
                                             const ChainHook* hook,
                                             sched::SchedulerStats& stats);

  [[nodiscard]] WaitBudgets budgets() const { return budgets_; }

  /// Worker threads spawned so far (monotonic; never exceeds num_cores).
  [[nodiscard]] int spawned_workers() const {
    return spawned_.load(std::memory_order_relaxed);
  }

 private:
  /// Per-core dispatch mailbox, alone in its cache line. The non-atomic
  /// fields are the current *window*: the owning job, this core's
  /// partition-local tid, and the {generation, sequence} base pair. All are
  /// plain fields ordered by the release-store of `gen` (single publisher
  /// per dock — the owning master), stable until the window is replaced.
  struct Dock {
    std::atomic<u64> gen{0};
    PoolJob* job = nullptr;
    int tid = 0;
    u64 base_gen = 0;  ///< dock generation of the window's first entry
    u64 base_seq = 0;  ///< job entry sequence of the window's first entry
  };

  struct CoreSlot {
    Padded<Dock> dock;
    Throttle throttle;     // fixed per core, set at construction
    bool spawned = false;  // written only by the core's current owner
    std::thread worker;
  };

  void worker_main(CoreSlot& slot);
  /// Worker side: spin → yield → futex until `dock.gen` leaves `seen`.
  u64 wait_for_dispatch(Dock& dock, u64 seen);
  /// The body shim every participant runs: pull ranges, run the body,
  /// capture the construct's first exception into `token` (a throwing body
  /// never unwinds past the dock loop), pay the core's throttle.
  void participate(const platform::TeamLayout& layout,
                   sched::LoopScheduler& sched, const RangeBody& body,
                   int tid, CancelToken* token);
  /// Honor entry `seq`'s dependency edge, participate, check in — the turn
  /// every member takes on every published entry.
  void run_entry(PoolJob& job, u64 seq, int tid);
  /// Stage the next entry of the owner's window and publish it to every
  /// worker dock of the partition (the ring reuse guard must hold).
  /// Returns its sequence; arms the owner's watchdog when `deadline_ns` > 0
  /// (id into `wd_id`, else 0).
  u64 publish(const Owner& owner, sched::LoopScheduler* sched,
              const RangeBody* body, u64 dep_seq,
              const CancelToken* spec_cancel, i64 deadline_ns, u64& wd_id);
  void wait_entry(PoolJob& job, u64 seq) {
    job.entry_of(seq).gate.wait(seq, budgets_.spin, budgets_.yield);
  }

  Options options_;
  WaitBudgets budgets_;
  SteadyTimeSource clock_;       // throttle charges and SF sampling
  std::vector<CoreSlot> slots_;  // index = platform core id
  std::atomic<bool> shutting_down_{false};
  Padded<std::atomic<u64>> epoch_;     // shared sleep channel (all workers)
  Padded<std::atomic<int>> sleepers_;  // workers blocked in epoch_.wait
  std::atomic<int> spawned_{0};
};

}  // namespace aid::rt
