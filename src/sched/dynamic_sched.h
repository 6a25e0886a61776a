// OpenMP `dynamic` scheduling — the libgomp lock-free implementation the
// paper builds AID on top of (Sec. 4.2): every worker repeatedly removes
// `chunk` iterations from the shared pool with one fetch-and-add until the
// pool is exhausted.
//
// Adapts to asymmetry implicitly (big-core threads come back for work more
// often) at the price of one pool removal per chunk — the overhead the paper
// shows can negate the benefit (IS: 1.93x slowdown; CG on Platform B: 2.86x).
// Under a sharded topology (sharded_work_share.h) that per-chunk removal is
// a cluster-local RMW on the home shard the pool looks up for the caller's
// tid; with the default single-shard topology it is the classic shared
// fetch-add.
#pragma once

#include "sched/loop_scheduler.h"
#include "sched/sharded_work_share.h"

namespace aid::sched {

class DynamicScheduler final : public LoopScheduler {
 public:
  /// `nthreads` sizes the pool's per-thread removal counters (callers pass
  /// layout.nthreads()). `topo` shards the pool; empty = single pool.
  DynamicScheduler(i64 count, i64 chunk, int nthreads,
                   ShardTopology topo = {});

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
