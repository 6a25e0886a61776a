#include "sched/factoring_sched.h"

#include <cmath>

#include "common/check.h"

namespace aid::sched {

WeightedFactoringScheduler::WeightedFactoringScheduler(
    i64 count, const platform::TeamLayout& layout,
    std::vector<double> weights)
    : pool_(layout.nthreads()), weights_(std::move(weights)) {
  AID_CHECK(count >= 0);
  if (weights_.empty()) {
    weights_.reserve(static_cast<usize>(layout.nthreads()));
    for (int tid = 0; tid < layout.nthreads(); ++tid)
      weights_.push_back(layout.speed_of(tid));
  }
  AID_CHECK_MSG(weights_.size() == static_cast<usize>(layout.nthreads()),
                "one weight per team thread");
  for (double w : weights_) {
    AID_CHECK_MSG(w > 0.0, "weights must be positive");
    weight_sum_ += w;
  }
  pool_.reset(count);
}

bool WeightedFactoringScheduler::next(ThreadContext& tc, IterRange& out) {
  if (tc.cancelled()) [[unlikely]] {
    pool_.poison();
    out = {pool_.end(), pool_.end()};
    return false;
  }
  AID_DCHECK(tc.tid >= 0 &&
             tc.tid < static_cast<int>(weights_.size()));
  const double w = weights_[static_cast<usize>(tc.tid)];
  out = pool_.take_adaptive(
      [this, w](i64 remaining) {
        const i64 want = static_cast<i64>(std::llround(
            static_cast<double>(remaining) * w / (2.0 * weight_sum_)));
        return want > 0 ? want : 1;
      },
      tc.tid);
  return !out.empty();
}

void WeightedFactoringScheduler::reset(i64 count) {
  AID_CHECK(count >= 0);
  pool_.reset(count);
}

SchedulerStats WeightedFactoringScheduler::stats() const {
  return {.pool_removals = pool_.removals(),
          .local_removals = pool_.removals()};
}

}  // namespace aid::sched
