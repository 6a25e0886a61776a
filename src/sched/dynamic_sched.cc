#include "sched/dynamic_sched.h"

#include "common/check.h"

namespace aid::sched {

DynamicScheduler::DynamicScheduler(i64 count,
                                   const platform::TeamLayout& layout,
                                   i64 chunk, bool sharded)
    : pool_(layout, sharded, chunk > 0 ? chunk : 1),
      chunk_(chunk > 0 ? chunk : 1) {
  AID_CHECK(count >= 0);
  pool_.reset(count);
}

bool DynamicScheduler::next(ThreadContext& tc, IterRange& out) {
  if (tc.cancelled()) [[unlikely]] {
    pool_.poison();
    out = {pool_.end(), pool_.end()};
    return false;
  }
  out = pool_.take(chunk_, tc.tid);
  return !out.empty();
}

void DynamicScheduler::reset(i64 count) {
  AID_CHECK(count >= 0);
  pool_.reset(count);
}

SchedulerStats DynamicScheduler::stats() const {
  return {.pool_removals = pool_.removals(),
          .local_removals = pool_.local_removals(),
          .steal_removals = pool_.remote_removals(),
          .shard_rebalances = pool_.rebalances()};
}

}  // namespace aid::sched
