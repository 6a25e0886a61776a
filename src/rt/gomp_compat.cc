#include "rt/gomp_compat.h"

#include <array>
#include <atomic>
#include <barrier>

#include "common/check.h"
#include "common/completion_gate.h"
#include "common/padded.h"
#include "rt/runtime.h"
#include "sched/iteration_space.h"
#include "sched/loop_scheduler.h"
#include "sched/scheduler_cache.h"

namespace aid::rt::gomp {
namespace {

/// Work shares the region's generation ring holds in flight: how far a
/// run-ahead thread may flow past the team's slowest straggler — the
/// engine's ring depth, with the same reuse discipline as a LoopChain.
constexpr u64 kRing = PoolJob::kChainRing;

/// One ring slot of the region's work-share chain. A work share is
/// identified by its *sequence* (1-based count of constructs the team has
/// entered — libgomp's work-share chaining id) and occupies slot
/// `sequence % kRing`. The slot is staged by exactly one thread (the
/// claim winner) and read by every team member:
///
///  * `claim` — staging ticket: arriving threads CAS it from the previous
///    occupant's sequence to their own; the single winner re-arms the
///    slot. Losers (and late stragglers whose CAS finds a newer value)
///    fall through to the publication wait.
///  * `published` — watermark-only CompletionGate (publish/wait): the
///    winner's publish(sequence) orders the staged plain fields below
///    against every other member's watermark read.
///  * `done` — the construct's completion countdown: every team member
///    checks in exactly once (its nowait exit); non-nowait `end` waits
///    here (the construct barrier), and the winner of sequence s waits on
///    `done.complete(s - kRing)` before restaging (the ring reuse guard).
///
/// ABA safety mirrors the pipeline ring: watermarks are monotone, and a
/// straggler still inside sequence s cannot observe slot fields of
/// s + kRing because that restaging is gated on the straggler's own
/// check_in to s.
struct WorkShareSlot {
  // Staged fields (plain: ordered by publish/wait on `published`).
  sched::LoopScheduler* sched = nullptr;
  long user_start = 0;
  long user_incr = 1;

  Padded<std::atomic<u64>> claim;
  CompletionGate published;
  CompletionGate done;
};

struct GompTeamState {
  GompTeamState(int nthreads, const platform::TeamLayout& team_layout,
                sched::SchedulerCache& sched_cache, WaitBudgets waits)
      : barrier(nthreads),
        team_size(nthreads),
        layout(&team_layout),
        cache(&sched_cache),
        budgets(waits) {}

  /// The region's work-share generation ring (see WorkShareSlot).
  std::array<WorkShareSlot, kRing> ring;
  std::barrier<> barrier;  ///< explicit aid_gomp_barrier only
  int team_size;
  // The layout pinned for this parallel region (Runtime::enter_region):
  // under AID_POOL the lease may repartition between regions, but within a
  // region every work share must see one consistent thread-to-core view.
  const platform::TeamLayout* layout = nullptr;
  /// The runtime's per-shape scheduler cache (team- or lease-owned): work
  /// shares re-arm cached instances instead of allocating per construct.
  sched::SchedulerCache* cache = nullptr;
  /// The owning engine's wait budgets (the region's waiters are its
  /// threads), latched at its construction.
  WaitBudgets budgets;

  [[nodiscard]] WorkShareSlot& slot_of(u64 seq) { return ring[seq % kRing]; }
};

struct GompTls {
  GompTeamState* state = nullptr;
  int tid = 0;
  /// Work-share constructs entered so far; while `current` is set this IS
  /// the current construct's sequence (its completion tag).
  u64 sequence = 0;
  WorkShareSlot* current = nullptr;
};

thread_local GompTls tls;

SteadyTimeSource g_clock;

sched::ThreadContext context_for(int tid) {
  const auto& layout = *tls.state->layout;
  return {.tid = tid,
          .core_type = layout.core_type_of(tid),
          .speed = layout.speed_of(tid),
          .time = &g_clock};
}

}  // namespace

void aid_gomp_parallel(void (*fn)(void*), void* data, unsigned num_threads) {
  AID_CHECK_MSG(fn != nullptr, "aid_gomp_parallel: null function");
  AID_CHECK_MSG(tls.state == nullptr,
                "nested aid_gomp_parallel is not supported");
  Runtime& rt = Runtime::instance();
  // Pin the layout for the region: under AID_POOL this holds the leased
  // partition stable across every work share inside fn (which also pins
  // the scheduler cache's validity — invalidation only happens when the
  // partition moves, and it cannot move inside a region).
  const platform::TeamLayout& layout = rt.enter_region();
  AID_CHECK_MSG(num_threads == 0 ||
                    num_threads == static_cast<unsigned>(layout.nthreads()),
                "libaid teams are fixed at startup; pass 0 threads");

  GompTeamState state(layout.nthreads(), layout, rt.scheduler_cache(),
                      rt.wait_budgets());
  // Every team member executes fn exactly once: one canonical iteration per
  // thread via round-robin static chunks of size 1.
  rt.run_loop(layout.nthreads(), sched::ScheduleSpec::static_chunked(1),
              [&](i64 b, i64 e, const WorkerInfo& w) {
                AID_CHECK(e == b + 1 && b == w.tid);
                tls = GompTls{&state, w.tid, 0, nullptr};
                fn(data);
                tls = GompTls{};
              });
  // The run_loop's implicit barrier is the chain-end flush: every member
  // returned from fn, so it checked into every work share it entered and
  // every `done` gate is closed. Each ring slot still leases its *last*
  // occupant's scheduler (earlier occupants were released at slot-reuse
  // time); all of them are quiescent now — hand them back.
  for (WorkShareSlot& slot : state.ring) state.cache->release(slot.sched);
  rt.exit_region();
}

bool aid_gomp_loop_runtime_start(long start, long end, long incr,
                                 long* istart, long* iend) {
  AID_CHECK_MSG(tls.state != nullptr,
                "work-sharing outside aid_gomp_parallel");
  AID_CHECK(istart != nullptr && iend != nullptr);
  GompTeamState& state = *tls.state;

  // This thread's next work share in the region's chain (1-based; libgomp
  // keys work shares by how many constructs each thread has entered).
  const u64 seq = ++tls.sequence;
  WorkShareSlot& slot = state.slot_of(seq);
  const u64 prev = seq > kRing ? seq - kRing : 0;

  // Claim the staging ticket: exactly one arriving thread CASes the
  // slot's previous occupant to `seq` and becomes the publisher. A
  // straggler arriving after a run-ahead peer already claimed seq + kRing
  // fails the CAS and lands in the publication wait below, where the
  // monotone watermark admits it immediately — and the fields it then
  // reads are still sequence seq's, because restaging for seq + kRing is
  // gated on this straggler's own check_in to seq.
  u64 expected = prev;
  if (slot.claim->compare_exchange_strong(expected, seq,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    // Ring reuse guard: the previous occupant must have fully completed
    // (every team member checked in) before its fields are replaced. This
    // is the pipeline ring's nowait bound — a run-ahead thread may flow
    // at most kRing work shares past the slowest straggler. The guard is
    // also the release point for the previous occupant's scheduler lease:
    // it is quiescent exactly here, so handing it back keeps at most
    // kRing leases outstanding and lets long nowait chains run entirely
    // on re-armed instances.
    if (prev != 0) {
      slot.done.wait(prev, state.budgets.spin, state.budgets.yield);
      state.cache->release(slot.sched);
    }
    sched::IterationSpace space(start, end, incr);
    // Per-shape cache: repeated work-share shapes (the common case — the
    // schedule is the environment's for every `runtime` construct) re-arm
    // a cached scheduler instead of allocating one. Only a region's first
    // ring-depth of shapes ever misses.
    slot.sched = state.cache->acquire(Runtime::instance().default_schedule(),
                                      space.count(), *state.layout);
    slot.user_start = start;
    slot.user_incr = incr;
    slot.done.arm(state.team_size, seq);
    slot.published.publish(seq);
  }
  // Everyone (winner included) enters through the publication watermark:
  // its acquire read orders the staged fields above.
  slot.published.wait(seq, state.budgets.spin, state.budgets.yield);

  tls.current = &slot;
  return aid_gomp_loop_runtime_next(istart, iend);
}

bool aid_gomp_loop_runtime_next(long* istart, long* iend) {
  AID_CHECK_MSG(tls.current != nullptr,
                "loop_runtime_next without loop_runtime_start");
  sched::ThreadContext tc = context_for(tls.tid);
  sched::IterRange r;
  if (!tls.current->sched->next(tc, r)) return false;
  // Map canonical [begin, end) back to user coordinates. The returned
  // bounds follow the GOMP contract: iterate with
  // `for (i = *istart; i != *iend; i += incr)` — exclusive end for either
  // sign of the increment.
  const long s = tls.current->user_start;
  const long inc = tls.current->user_incr;
  *istart = s + static_cast<long>(r.begin) * inc;
  *iend = s + static_cast<long>(r.end) * inc;
  return true;
}

namespace {

/// Work-share exit — the `nowait` fast path and the first half of the
/// barrier-flavored end. One check_in on the construct's completion gate:
/// no mutex, no map, no barrier. A thread leaving work share k can
/// immediately claim/enter k+1 while a straggler still pulls chunks from
/// k's scheduler; the gate's last check_in publishes k's completion
/// watermark, which is what gates slot reuse (k + kRing's restaging) and
/// non-nowait ends.
void finish_workshare() {
  AID_CHECK_MSG(tls.state != nullptr, "loop_end outside aid_gomp_parallel");
  AID_CHECK_MSG(tls.current != nullptr, "loop_end without a work share");
  tls.current->done.check_in(tls.sequence);
  tls.current = nullptr;
}

}  // namespace

void aid_gomp_loop_end() {
  AID_CHECK_MSG(tls.state != nullptr, "loop_end outside aid_gomp_parallel");
  AID_CHECK_MSG(tls.current != nullptr, "loop_end without a work share");
  // Non-nowait end: the construct's implicit barrier is the completion
  // gate itself — wait until every team member checked in.
  WorkShareSlot& slot = *tls.current;
  const u64 seq = tls.sequence;
  finish_workshare();
  slot.done.wait(seq, tls.state->budgets.spin, tls.state->budgets.yield);
}

void aid_gomp_loop_end_nowait() { finish_workshare(); }

int aid_gomp_thread_num() {
  return tls.state != nullptr ? tls.tid : 0;
}

int aid_gomp_num_threads() {
  return tls.state != nullptr ? tls.state->team_size : 1;
}

void aid_gomp_barrier() {
  AID_CHECK_MSG(tls.state != nullptr, "barrier outside aid_gomp_parallel");
  tls.state->barrier.arrive_and_wait();
}

}  // namespace aid::rt::gomp
