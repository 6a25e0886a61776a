// OpenMP `guided` scheduling (libgomp semantics): the removal size is
// max(chunk, remaining / nthreads), recomputed against the live pool with a
// CAS loop.
//
// The paper evaluated guided and found it inferior to both static and
// dynamic on AMPs (+44% / +65% average completion time, Sec. 5): the first
// removals hand each thread ~NI/T iterations regardless of core speed, so a
// small-core thread can strand a huge early block while the shrinking tail
// is too small to rebalance. bench_guided_comparison reproduces this.
// The pool is libgomp's single work share on real threads too: every chunk
// is sized by the whole loop's remainder, so the runtime's chunk sequence
// is the one the paper measured.
#pragma once

#include "sched/loop_scheduler.h"
#include "sched/work_share.h"

namespace aid::sched {

class GuidedScheduler final : public LoopScheduler {
 public:
  GuidedScheduler(i64 count, const platform::TeamLayout& layout, i64 chunk);

  bool next(ThreadContext& tc, IterRange& out) override;
  void reset(i64 count) override;
  [[nodiscard]] std::string_view name() const override { return "guided"; }
  [[nodiscard]] SchedulerStats stats() const override;
  [[nodiscard]] i64 pool_removals_of(int tid) const override {
    return pool_.removals_of(tid);
  }
  [[nodiscard]] i64 remaining() const override { return pool_.remaining(); }

 private:
  WorkShare pool_;
  i64 chunk_;
  int nthreads_;
};

}  // namespace aid::sched
