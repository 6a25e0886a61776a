// OpenMP `dynamic` scheduling — the libgomp lock-free implementation the
// paper builds AID on top of (Sec. 4.2): every worker repeatedly removes
// `chunk` iterations from the shared pool with one fetch-and-add until the
// pool is exhausted.
//
// Adapts to asymmetry implicitly (big-core threads come back for work more
// often) at the price of one pool removal per chunk — the overhead the paper
// shows can negate the benefit (IS: 1.93x slowdown; CG on Platform B: 2.86x).
// The runtime arms it sharded (make_sharded_scheduler), one shard per
// thread: the per-chunk removal is then an RMW on the caller's own word,
// and a thread whose word drained bulk-migrates from a peer's. That is
// OpenMP 5.0's `nonmonotonic:dynamic` (LLVM libomp's static_steal): a
// thread's chunks need not come in increasing order, but every chunk
// except the one holding the last iteration has exactly `chunk`
// iterations, because the pool's grain is the chunk. Unsharded (the
// simulator) it is the classic shared fetch-add.
#pragma once

#include "sched/loop_scheduler.h"
#include "sched/sharded_work_share.h"

namespace aid::sched {

class DynamicScheduler final : public LoopScheduler {
 public:
  /// `sharded` gives the pool one shard per thread of `layout`; else it
  /// is the single pool. The chunk is the pool's grain.
  DynamicScheduler(i64 count, const platform::TeamLayout& layout, i64 chunk,
                   bool sharded);

  bool next(ThreadContext& tc, IterRange& out) override;
  void reset(i64 count) override;
  [[nodiscard]] std::string_view name() const override { return "dynamic"; }
  [[nodiscard]] SchedulerStats stats() const override;
  [[nodiscard]] i64 pool_removals_of(int tid) const override {
    return pool_.removals_of(tid);
  }
  [[nodiscard]] i64 remaining() const override { return pool_.remaining(); }

 private:
  ShardedWorkShare pool_;
  i64 chunk_;
};

}  // namespace aid::sched
