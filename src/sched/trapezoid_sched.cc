#include "sched/trapezoid_sched.h"

#include <cmath>

#include "common/check.h"

namespace aid::sched {

TrapezoidScheduler::TrapezoidScheduler(i64 count,
                                       const platform::TeamLayout& layout,
                                       i64 first_chunk, i64 last_chunk)
    : pool_(layout.nthreads()),
      nthreads_(layout.nthreads()),
      requested_first_(first_chunk),
      requested_last_(last_chunk) {
  AID_CHECK(count >= 0);
  AID_CHECK(first_chunk >= 0 && last_chunk >= 0);
  AID_CHECK_MSG(first_chunk == 0 || last_chunk <= first_chunk,
                "trapezoid needs last <= first");
  configure(count);
  pool_.reset(count);
}

void TrapezoidScheduler::configure(i64 count) {
  last_ = requested_last_ > 0 ? requested_last_ : 1;
  first_ = requested_first_ > 0
               ? requested_first_
               : (count + 2 * nthreads_ - 1) / (2 * nthreads_);
  if (first_ < last_) first_ = last_;
  // Number of chunks C = ceil(2N / (f + l)); linear decrement delta.
  const double fl = static_cast<double>(first_ + last_);
  const i64 c = fl > 0 ? static_cast<i64>(
                             std::ceil(2.0 * static_cast<double>(count) / fl))
                       : 1;
  delta_ = c > 1 ? static_cast<double>(first_ - last_) /
                       static_cast<double>(c - 1)
                 : 0.0;
  chunk_index_.store(0, std::memory_order_relaxed);
}

i64 TrapezoidScheduler::chunk_size(i64 k) const {
  const double size =
      static_cast<double>(first_) - static_cast<double>(k) * delta_;
  const i64 rounded = static_cast<i64>(std::llround(size));
  return rounded > last_ ? rounded : last_;
}

bool TrapezoidScheduler::next(ThreadContext& tc, IterRange& out) {
  if (tc.cancelled()) [[unlikely]] {
    pool_.poison();
    out = {pool_.end(), pool_.end()};
    return false;
  }
  // Probe the drain first so an exhausted pool stops advancing the chunk
  // index (and the index fetch_add) once the loop is over.
  if (pool_.remaining() == 0) {
    out = {pool_.end(), pool_.end()};
    return false;
  }
  const i64 k = chunk_index_.fetch_add(1, std::memory_order_relaxed);
  out = pool_.take(chunk_size(k), tc.tid);
  return !out.empty();
}

void TrapezoidScheduler::reset(i64 count) {
  AID_CHECK(count >= 0);
  configure(count);
  pool_.reset(count);
}

SchedulerStats TrapezoidScheduler::stats() const {
  return {.pool_removals = pool_.removals(),
          .local_removals = pool_.removals()};
}

}  // namespace aid::sched
