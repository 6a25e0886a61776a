// Weighted Factoring (Hummel, Schmidt, Uma & Wein, SPAA 1996) — the classic
// *static-weight* asymmetry-aware loop schedule the paper cites ([21]).
//
// Factoring dispenses work in batches of half the remaining iterations;
// within a batch every thread receives one chunk. The *weighted* variant
// scales each thread's chunk by a fixed per-thread weight (here: the
// platform's nominal core speed), so big cores get proportionally more —
// the same goal as AID, but with weights fixed a priori instead of measured
// per loop at runtime.
//
// This is the most interesting ablation against AID-static: it isolates
// the value of ONLINE per-loop SF estimation (paper Sec. 2: "the speedup
// factor may vary substantially across parallel loops") from the value of
// mere proportional distribution. Where the nominal ratio matches the
// loop's true SF, weighted factoring ties AID; where the loop's SF departs
// from nominal (Fig. 2!), it misallocates.
//
// Implementation: a thread's removal takes remaining * w_t / (2 * sum w)
// (at least 1), the practical self-scheduled form of weighted factoring,
// with `remaining` the whole loop's: the pool is one shared work share.
#pragma once

#include <vector>

#include "sched/loop_scheduler.h"
#include "sched/work_share.h"

namespace aid::sched {

class WeightedFactoringScheduler final : public LoopScheduler {
 public:
  /// Weights default to the layout's nominal per-thread speeds; a custom
  /// vector (one entry per thread) may be supplied for experimentation.
  WeightedFactoringScheduler(i64 count, const platform::TeamLayout& layout,
                             std::vector<double> weights = {});

  bool next(ThreadContext& tc, IterRange& out) override;
  void reset(i64 count) override;
  [[nodiscard]] std::string_view name() const override {
    return "weighted-factoring";
  }
  [[nodiscard]] SchedulerStats stats() const override;
  [[nodiscard]] i64 pool_removals_of(int tid) const override {
    return pool_.removals_of(tid);
  }
  [[nodiscard]] i64 remaining() const override { return pool_.remaining(); }

  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }

 private:
  WorkShare pool_;
  std::vector<double> weights_;
  double weight_sum_ = 0.0;
};

}  // namespace aid::sched
