// Trapezoid Self-Scheduling (Tzen & Ni, IEEE TPDS 1993) — a related-work
// baseline the paper cites ([46]): chunk sizes decrease *linearly* from
// first = NI/(2T) down to last = 1, rather than geometrically as in guided.
//
// Like guided, TSS is asymmetry-unaware: chunk k has the same size no
// matter which core takes it, so a small core drawing an early (large)
// chunk can still strand the loop. Included as a comparison point for the
// ablation bench (bench_ablation_schedulers). Runs on one shared work
// share, as guided does.
#pragma once

#include <atomic>

#include "sched/loop_scheduler.h"
#include "sched/work_share.h"

namespace aid::sched {

class TrapezoidScheduler final : public LoopScheduler {
 public:
  /// first/last chunk sizes; 0 picks the classic defaults
  /// first = ceil(NI / (2T)), last = 1.
  TrapezoidScheduler(i64 count, const platform::TeamLayout& layout,
                     i64 first_chunk = 0, i64 last_chunk = 0);

  bool next(ThreadContext& tc, IterRange& out) override;
  void reset(i64 count) override;
  [[nodiscard]] std::string_view name() const override { return "trapezoid"; }
  [[nodiscard]] SchedulerStats stats() const override;
  [[nodiscard]] i64 pool_removals_of(int tid) const override {
    return pool_.removals_of(tid);
  }
  [[nodiscard]] i64 remaining() const override { return pool_.remaining(); }

  /// Size of the k-th dispensed chunk (exposed for tests):
  /// max(last, first - k * delta) with delta = (first-last)/(C-1),
  /// C = ceil(2*NI / (first+last)).
  [[nodiscard]] i64 chunk_size(i64 k) const;

 private:
  void configure(i64 count);

  WorkShare pool_;
  std::atomic<i64> chunk_index_{0};
  i64 first_ = 1;
  i64 last_ = 1;
  double delta_ = 0.0;
  const int nthreads_;
  const i64 requested_first_;
  const i64 requested_last_;
};

}  // namespace aid::sched
