#include "sched/guided_sched.h"

#include "common/check.h"

namespace aid::sched {

GuidedScheduler::GuidedScheduler(i64 count,
                                 const platform::TeamLayout& layout, i64 chunk)
    : pool_(layout.nthreads()),
      chunk_(chunk > 0 ? chunk : 1),
      nthreads_(layout.nthreads()) {
  AID_CHECK(count >= 0);
  pool_.reset(count);
}

bool GuidedScheduler::next(ThreadContext& tc, IterRange& out) {
  if (tc.cancelled()) [[unlikely]] {
    pool_.poison();
    out = {pool_.end(), pool_.end()};
    return false;
  }
  out = pool_.take_adaptive(
      [this](i64 remaining) {
        const i64 q = remaining / nthreads_;
        return q > chunk_ ? q : chunk_;
      },
      tc.tid);
  return !out.empty();
}

void GuidedScheduler::reset(i64 count) {
  AID_CHECK(count >= 0);
  pool_.reset(count);
}

SchedulerStats GuidedScheduler::stats() const {
  return {.pool_removals = pool_.removals(),
          .local_removals = pool_.removals()};
}

}  // namespace aid::sched
