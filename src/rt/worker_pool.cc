#include "rt/worker_pool.h"

#include <utility>

#include "common/affinity.h"
#include "common/check.h"
#include "common/env.h"
#include "common/spin_wait.h"
#include "fault/fault.h"
#include "pipeline/loop_chain.h"

namespace aid::rt {

WaitBudgets wait_budgets(int nthreads) {
  return {static_cast<i32>(env::get_int_at_least(
              "AID_FORKJOIN_SPIN", default_spin_budget(nthreads), 0)),
          static_cast<i32>(env::get_int_at_least(
              "AID_FORKJOIN_YIELD", default_yield_budget(nthreads), 0))};
}

WorkerPool::WorkerPool(const platform::Platform& platform, Options options,
                       WaitBudgets budgets)
    : options_(options),
      budgets_(budgets),
      slots_(static_cast<usize>(platform.num_cores())) {
  const double max_speed =
      platform.speed_of_type(platform.num_core_types() - 1);
  for (int core = 0; core < platform.num_cores(); ++core)
    slots_[static_cast<usize>(core)].throttle = Throttle(
        max_speed / platform.speed_of_core(core), options_.emulate_amp);
  // Arm the fault-injection plan (if AID_FAULT is set) before any worker
  // can run a body shim; once-per-process, no-op thereafter.
  fault::init_from_env();
}

WorkerPool::~WorkerPool() {
  // Cold path: bump every spawned dock and broadcast on the shared epoch
  // unconditionally. Workers check shutting_down_ before touching the
  // window/entry fields; the owners guarantee no construct is in flight.
  shutting_down_.store(true, std::memory_order_seq_cst);
  for (auto& slot : slots_) {
    if (!slot.spawned) continue;
    Dock& dock = *slot.dock;
    dock.gen.store(dock.gen.load(std::memory_order_relaxed) + 1,
                   std::memory_order_seq_cst);
  }
  epoch_->fetch_add(1, std::memory_order_seq_cst);
  epoch_->notify_all();
  for (auto& slot : slots_)
    if (slot.worker.joinable()) slot.worker.join();
}

u64 WorkerPool::wait_for_dispatch(Dock& dock, u64 seen) {
  u64 g = dock.gen.load(std::memory_order_acquire);
  if (g != seen) return g;

  // Spin (polling only this worker's own cache line), then yield (donate
  // the CPU to the master on oversubscribed hosts rather than paying a
  // futex sleep the master must then wake).
  if (spin_then_yield(
          [&] {
            g = dock.gen.load(std::memory_order_acquire);
            return g != seen;
          },
          budgets_.spin, budgets_.yield))
    return g;

  // Block on the shared epoch. The sleepers_ increment precedes the final
  // dock re-check so it pairs with publish()'s bump-then-check-sleepers
  // sequence (Dekker: either we see the new generation here, or the
  // master sees our registration and pays the wake). The epoch advances
  // on every publish by any master, so a wake may be for someone else's
  // partition: re-check the dock and sleep again (correctness-neutral).
  for (;;) {
    const u64 e = epoch_->load(std::memory_order_seq_cst);
    sleepers_->fetch_add(1, std::memory_order_seq_cst);
    g = dock.gen.load(std::memory_order_seq_cst);
    if (g != seen) {
      sleepers_->fetch_sub(1, std::memory_order_relaxed);
      return g;
    }
    epoch_->wait(e, std::memory_order_seq_cst);
    sleepers_->fetch_sub(1, std::memory_order_relaxed);
  }
}

void WorkerPool::worker_main(CoreSlot& slot) {
  Dock& dock = *slot.dock;
  u64 seen = 0;
  for (;;) {
    const u64 g = wait_for_dispatch(dock, seen);
    if (shutting_down_.load(std::memory_order_acquire)) return;
    // The acquire read of `g` makes the window fields and every entry
    // staged up to generation g visible. All of (seen, g] belongs to one
    // window: a window is replaced only after all of its entries
    // completed, which requires this worker to have drained them first.
    PoolJob& job = *dock.job;
    const int tid = dock.tid;
    const u64 base_gen = dock.base_gen;
    const u64 base_seq = dock.base_seq;
    for (u64 gen = seen + 1; gen <= g; ++gen)
      run_entry(job, base_seq + (gen - base_gen), tid);
    seen = g;
  }
}

void WorkerPool::participate(const platform::TeamLayout& layout,
                             sched::LoopScheduler& sched,
                             const RangeBody& body, int tid,
                             CancelToken* token) {
  sched::ThreadContext tc{
      .tid = tid,
      .core_type = layout.core_type_of(tid),
      .speed = layout.speed_of(tid),
      .time = &clock_,
      .cancel = token,
  };
  const Throttle& throttle =
      slots_[static_cast<usize>(layout.core_of(tid))].throttle;
  const WorkerInfo info{tid, tc.core_type, tc.speed};
  // One latch per participation: the per-chunk fault probe is a plain
  // register test unless a plan is installed (fault/fault.h). Likewise the
  // clock is read only on a core whose throttle charges for the chunk.
  const bool fault_on = fault::enabled();
  const bool throttled = throttle.enabled();

  sched::IterRange r;
  while (sched.next(tc, r)) {
    const Nanos t0 = throttled ? clock_.now() : 0;
    // The capture shim: workers have no handler up-stack, so a throwing
    // body must never unwind past the dock loop. The FIRST exception per
    // construct is stashed in the token (atomic claim) and doubles as the
    // cancellation signal: the next sched.next() observes it, poisons the
    // pool and exits the take loop, so the gate still closes and the
    // master rethrows after the join.
    try {
      if (fault_on) [[unlikely]]
        fault::before_chunk(tid, r.begin, r.end);
      body(r.begin, r.end, info);
    } catch (...) {
      token->capture(std::current_exception());
    }
    if (throttled) throttle.pay(clock_.now() - t0);
  }
}

void WorkerPool::run_entry(PoolJob& job, u64 seq, int tid) {
  PoolJob::Entry& entry = job.entry_of(seq);
  if (entry.dep_seq != 0) {
    wait_entry(job, entry.dep_seq);
    // A cancelled predecessor cancels its dependents: fold the dependency
    // gate's cancelled watermark into this entry's token (first sighting
    // wins; every member does the same).
    if (job.entry_of(entry.dep_seq).gate.was_cancelled(entry.dep_seq))
      entry.token.cancel(CancelReason::kDependency);
  }
  participate(*job.layout, *entry.sched, *entry.body, tid, &entry.token);
  entry.gate.check_in(seq, entry.token.cancelled());
}

void WorkerPool::open_window(const platform::TeamLayout& layout,
                             PoolJob& job) {
  if (options_.bind_threads) try_bind_to_core(layout.core_of(0));
  job.layout = &layout;
  for (int tid = 1; tid < layout.nthreads(); ++tid) {
    const int core = layout.core_of(tid);
    CoreSlot& slot = slots_[static_cast<usize>(core)];
    Dock& dock = *slot.dock;
    dock.job = &job;
    dock.tid = tid;
    dock.base_gen = dock.gen.load(std::memory_order_relaxed) + 1;
    dock.base_seq = job.next_seq;
    // Lazy spawn: thread creation orders the window stores above before
    // the worker's first dock read.
    if (!slot.spawned) {
      slot.spawned = true;
      spawned_.fetch_add(1, std::memory_order_relaxed);
      const bool bind = options_.bind_threads;
      slot.worker = std::thread([this, &slot, core, bind] {
        if (bind) try_bind_to_core(core);
        worker_main(slot);
      });
    }
  }
}

u64 WorkerPool::publish(const Owner& owner, sched::LoopScheduler* sched,
                        const RangeBody* body, u64 dep_seq,
                        const CancelToken* spec_cancel, i64 deadline_ns,
                        u64& wd_id) {
  PoolJob& job = *owner.job;
  const platform::TeamLayout& layout = *job.layout;
  const u64 seq = job.next_seq++;
  PoolJob::Entry& entry = job.entry_of(seq);
  // Ring reuse guard (callers enforce): the previous occupant has
  // completed and was harvested, so nobody reads the old fields.
  AID_DCHECK(seq <= PoolJob::kChainRing ||
             entry.gate.complete(seq - PoolJob::kChainRing));
  entry.sched = sched;
  entry.body = body;
  entry.dep_seq = dep_seq;
  entry.token.reset();
  entry.token.bind(spec_cancel, owner.cancel);
  const int n = layout.nthreads();
  entry.gate.arm(n, seq);
  // Per-dock generations first, then the shared epoch, then the sleeper
  // check: pairs with wait_for_dispatch's register-then-re-check (Dekker),
  // so the notify_all syscall is paid only when a worker reached the futex.
  if (n > 1) {
    for (int tid = 1; tid < n; ++tid) {
      Dock& dock = *slots_[static_cast<usize>(layout.core_of(tid))].dock;
      dock.gen.store(dock.gen.load(std::memory_order_relaxed) + 1,
                     std::memory_order_seq_cst);
    }
    epoch_->fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_->load(std::memory_order_seq_cst) != 0) epoch_->notify_all();
  }
  wd_id = 0;
  if (deadline_ns > 0) {
    // The dump reads only atomics / racy-by-design diagnostics — dock
    // generations and the scheduler's pool remainder, NOT stats(), which
    // touches plain fields a live scheduler still writes. The entry is
    // disarmed before its window (and so `layout`) can be replaced.
    Watchdog::DumpFn dump = [this, &layout, sched, seq](std::FILE* f) {
      std::fprintf(f, "  scheduler: %.*s remaining=%lld\n",
                   static_cast<int>(sched->name().size()),
                   sched->name().data(),
                   static_cast<long long>(sched->remaining()));
      for (int tid = 1; tid < layout.nthreads(); ++tid)
        std::fprintf(
            f, "  core %d (tid %d): dock generation %llu (entry %llu)\n",
            layout.core_of(tid), tid,
            static_cast<unsigned long long>(
                slots_[static_cast<usize>(layout.core_of(tid))]
                    .dock->gen.load(std::memory_order_relaxed)),
            static_cast<unsigned long long>(seq));
    };
    wd_id = owner.watchdog->arm(&entry.token, &entry.gate, seq, deadline_ns,
                                "construct", std::move(dump));
  }
  return seq;
}

std::exception_ptr WorkerPool::run_loop(const Owner& owner, i64 count,
                                        const sched::ScheduleSpec& spec,
                                        const RangeBody& body,
                                        sched::SchedulerStats& stats) {
  AID_CHECK(count >= 0);
  if (count == 0) {
    // Empty loop: no iterations, so no scheduler, no dispatch, no join.
    stats = sched::SchedulerStats{};
    return nullptr;
  }
  PoolJob& job = *owner.job;
  const platform::TeamLayout& layout = *job.layout;
  // Cache-first: an idle same-shape instance is re-armed via reset()
  // instead of reallocating scheduler + shard pool per loop.
  sched::LoopScheduler* sched =
      owner.cache->acquire(spec, count, layout);

  std::exception_ptr error;
  u64 wd = 0;
  if (layout.nthreads() == 1) {
    // Serial fast path: nothing to dispatch — the master participates
    // alone with zero synchronization, its token on the stack (disarmed
    // before the token dies).
    CancelToken token;
    token.bind(spec.cancel, owner.cancel);
    if (spec.deadline_ns > 0)
      wd = owner.watchdog->arm(&token, nullptr, 0, spec.deadline_ns,
                               "construct (serial)");
    participate(layout, *sched, body, /*tid=*/0, &token);
    if (wd != 0) owner.watchdog->disarm(wd);
    error = token.error();
  } else {
    // A chain of one. The ring reuse guard holds because every previous
    // construct on this job was flushed before its run returned.
    const u64 seq = publish(owner, sched, &body, /*dep_seq=*/0, spec.cancel,
                            spec.deadline_ns, wd);
    run_entry(job, seq, /*tid=*/0);
    wait_entry(job, seq);
    if (wd != 0) owner.watchdog->disarm(wd);
    // The gate's acquire wait ordered every worker's capture before this
    // read: safe to harvest the first (and only stashed) exception now.
    error = job.entry_of(seq).token.error();
  }
  stats = sched->stats();
  owner.cache->release(sched);
  return error;
}

std::exception_ptr WorkerPool::run_chain(const Owner& owner,
                                         const pipeline::LoopChain& chain,
                                         const ChainHook* hook,
                                         sched::SchedulerStats& stats) {
  const auto& loops = chain.loops();
  if (loops.empty()) return nullptr;
  constexpr u64 kRing = PoolJob::kChainRing;
  PoolJob& job = *owner.job;
  const usize total = loops.size();
  // Chain entry k runs as entry sequence seq0 + k (a window re-opened by a
  // commit keeps mapping onto the job's sequences). Each entry's scheduler
  // lease lives in its ring slot until the entry is proven complete: it is
  // released at the slot's reuse, or after the chain-end flush — a
  // mid-chain commit may invalidate the cache, so leases acquired before
  // it die (not repool) on release.
  const u64 seq0 = job.next_seq;
  std::array<u64, kRing> wd_ids{};  // armed watchdog entries, by ring slot
  usize pub = 0;      // entries published so far
  usize run = 0;      // entries the master has participated in
  usize flushed = 0;  // entries known complete (window boundary)

  // First error anywhere in the chain, rethrown by the owner after the
  // flush. An entry MUST be disarmed + harvested before its ring slot is
  // restaged (publish resets the token) and before a commit replaces the
  // window its watchdog dump reads — so harvesting runs in entry order, at
  // the ring-reuse point and after every flush.
  std::exception_ptr chain_error;
  usize harvested = 0;
  const auto harvest_through = [&](usize limit) {
    for (; harvested < limit; ++harvested) {
      const u64 seq = seq0 + harvested;
      u64& wd = wd_ids[seq % kRing];
      if (wd != 0) owner.watchdog->disarm(std::exchange(wd, 0));
      if (!chain_error) chain_error = job.entry_of(seq).token.error();
    }
  };
  const auto flush_published = [&] {
    for (; flushed < pub; ++flushed) wait_entry(job, seq0 + flushed);
    harvest_through(pub);
  };
  const auto commit_pending = [hook] {
    return hook != nullptr && hook->pending();
  };

  while (run < total) {
    const bool want_commit = commit_pending();
    while (!want_commit && pub < total) {
      // Re-probe before every publish so a commit posted mid-batch stops
      // dispatch at the next entry, not after a ring-full batch.
      if (pub != run && commit_pending()) break;
      // Ring reuse guard: the slot's previous occupant must be complete.
      const u64 seq = seq0 + pub;
      PoolJob::Entry& entry = job.entry_of(seq);
      if (seq > kRing && !entry.gate.complete(seq - kRing)) break;
      // Proven complete: harvest chain entry pub - kRing before its slot is
      // restaged, and hand its lease back now (only the final entry's
      // stats are read), so a long same-shape chain re-arms at most kRing
      // instances.
      if (pub >= kRing) {
        harvest_through(pub - kRing + 1);
        owner.cache->release(entry.sched);
      }
      const pipeline::ChainedLoop& loop = loops[pub];
      // Edges point at earlier entries; the watermark is monotone, so an
      // edge into an already-drained window is a no-op wait.
      const u64 dep = loop.depends_on >= 0
                          ? seq0 + static_cast<u64>(loop.depends_on)
                          : 0;
      publish(owner, owner.cache->acquire(loop.spec, loop.count, *job.layout),
              &loop.body, dep, loop.spec.cancel, loop.spec.deadline_ns,
              wd_ids[seq % kRing]);
      ++pub;
    }

    if (run < pub) {
      // The master works through its own shares in chain order; workers
      // flow ahead through everything already published.
      run_entry(job, seq0 + run, /*tid=*/0);
      ++run;
    } else if (want_commit) {
      // Every published entry has the master's participation: drain them,
      // then let the owner adopt its new partition at this boundary.
      flush_published();
      hook->commit(owner);
    } else {
      // Ring full and nothing left for the master: wait for the oldest
      // in-flight entry (the workers are draining it).
      wait_entry(job, seq0 + pub - kRing);
    }
  }

  // The chain-end flush: the only full join of the chain (pub == total, so
  // it also disarms + harvests every remaining entry). The final ring-depth
  // of entries still hold their leases.
  flush_published();
  stats = job.entry_of(seq0 + total - 1).sched->stats();
  for (usize k = total > kRing ? total - kRing : 0; k < total; ++k)
    owner.cache->release(job.entry_of(seq0 + k).sched);
  return chain_error;
}

}  // namespace aid::rt
