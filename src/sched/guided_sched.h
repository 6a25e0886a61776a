// OpenMP `guided` scheduling (libgomp semantics): the removal size is
// max(chunk, remaining / nthreads), recomputed against the live pool with a
// CAS loop.
//
// The paper evaluated guided and found it inferior to both static and
// dynamic on AMPs (+44% / +65% average completion time, Sec. 5): the first
// removals hand each thread ~NI/T iterations regardless of core speed, so a
// small-core thread can strand a huge early block while the shrinking tail
// is too small to rebalance. bench_guided_comparison reproduces this.
// Under a sharded topology the shrinking removal is computed against the
// *segment* being CASed (the caller's home-shard segment in the common
// case) while the divisor stays the team-wide thread count, so chunks
// shrink faster than classic guided — per cluster, and again per block
// the steal path migrates. Cross-cluster traffic only appears when a
// cluster's shard drains and the thread steals.
#pragma once

#include "sched/loop_scheduler.h"
#include "sched/sharded_work_share.h"

namespace aid::sched {

class GuidedScheduler final : public LoopScheduler {
 public:
  GuidedScheduler(i64 count, const platform::TeamLayout& layout, i64 chunk,
                  ShardTopology topo = {});

  bool next(ThreadContext& tc, IterRange& out) override;
  void reset(i64 count) override;
  [[nodiscard]] std::string_view name() const override { return "guided"; }
  [[nodiscard]] SchedulerStats stats() const override;
  [[nodiscard]] i64 pool_removals_of(int tid) const override {
    return pool_.removals_of(tid);
  }
  [[nodiscard]] i64 remaining() const override { return pool_.remaining(); }

 private:
  ShardedWorkShare pool_;
  i64 chunk_;
  int nthreads_;
};

}  // namespace aid::sched
