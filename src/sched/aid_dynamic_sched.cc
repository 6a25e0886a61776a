#include "sched/aid_dynamic_sched.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace aid::sched {

AidDynamicScheduler::AidDynamicScheduler(i64 count,
                                         const platform::TeamLayout& layout,
                                         i64 minor_chunk, i64 major_chunk,
                                         bool endgame_enabled, bool sharded)
    : pool_(layout, sharded),
      estimator_(layout.num_core_types()),
      minor_chunk_(minor_chunk > 0 ? minor_chunk : 1),
      major_chunk_(major_chunk > 0 ? major_chunk : 5),
      endgame_enabled_(endgame_enabled),
      nthreads_(layout.nthreads()),
      timed_(!layout.is_uniform()),
      per_thread_(static_cast<usize>(layout.nthreads())) {
  AID_CHECK_MSG(major_chunk_ >= minor_chunk_,
                "AID-dynamic requires M >= m (paper Sec. 4.2)");
  for (int t = 0; t < layout.num_core_types(); ++t)
    if (layout.threads_of_type(t) > 0) fastest_type_ = static_cast<usize>(t);
  reset(count);
}

void AidDynamicScheduler::reset(i64 count) {
  AID_CHECK(count >= 0);
  pool_.reset(count);
  estimator_.reset(nthreads_);
  for (auto& pt : per_thread_) *pt = PerThread{};
  for (auto& r : ratio_) r.store(1.0, std::memory_order_relaxed);
  recomputes_.store(0, std::memory_order_relaxed);
  reported_sf_ = timed_ ? 0.0 : 1.0;
  endgame_.store(false, std::memory_order_release);
}

void AidDynamicScheduler::recompute() {
  if (recomputing_.exchange(true, std::memory_order_acquire)) return;
  const auto ntypes = static_cast<usize>(estimator_.num_core_types());
  std::array<double, kMaxCoreTypes> rate{};
  estimator_.next_window({rate.data(), ntypes});
  // Rates only compare: the slowest type with samples anchors the others
  // at its current R, and a type without samples keeps its R. The slowest
  // populated type is the anchor whenever it has samples, so its R stays 1.
  usize anchor = 0;
  while (anchor < ntypes && rate[anchor] <= 0.0) ++anchor;
  if (anchor < ntypes) {
    const double scale =
        ratio_[anchor].load(std::memory_order_relaxed) / rate[anchor];
    for (usize t = anchor + 1; t < ntypes; ++t)
      if (rate[t] > 0.0)
        ratio_[t].store(std::max(SfEstimator::kMinSf, scale * rate[t]),
                        std::memory_order_relaxed);
  }
  // The first window is the team's sampling chunks, one per thread
  // (end_block()), so it has samples of every populated type: its R for
  // the fastest populated type is the loop's SF.
  if (recomputes_.fetch_add(1, std::memory_order_relaxed) == 0)
    reported_sf_ = ratio_[fastest_type_].load(std::memory_order_relaxed);
  recomputing_.store(false, std::memory_order_release);
}

void AidDynamicScheduler::end_block(const ThreadContext& tc, PerThread& pt) {
  const Nanos now = tc.now();
  if (pt.block_iters > 0) {
    pt.folded_time += now - pt.block_start;
    pt.folded_iters += pt.block_iters;
    // Block 1 is the sampling chunk, recorded alone. Later blocks are
    // recorded kBlocksPerRecord at a time (blocks 2-5, 6-9, ...), and only
    // once the sampling chunks have set R, so that the first window holds
    // one cold sample per thread and no warm blocks of the faster threads.
    const bool due = pt.blocks == 1 ||
                     ((pt.blocks - 1) % kBlocksPerRecord == 0 &&
                      recomputes_.load(std::memory_order_relaxed) > 0);
    if (due) {
      if (estimator_.record(tc.core_type, pt.folded_time, pt.folded_iters))
        recompute();
      pt.folded_time = 0;
      pt.folded_iters = 0;
    }
  }
  pt.block_start = now;
}

bool AidDynamicScheduler::next(ThreadContext& tc, IterRange& out) {
  // Cancellation: poison and bail. A cancelled thread's block stays
  // unrecorded — harmless, reset() rebuilds the estimator before reuse.
  if (tc.cancelled()) [[unlikely]] {
    pool_.poison();
    out = {pool_.end(), pool_.end()};
    return false;
  }
  AID_DCHECK(tc.tid >= 0 && tc.tid < nthreads_);
  PerThread& pt = *per_thread_[static_cast<usize>(tc.tid)];

  if (!endgame_.load(std::memory_order_acquire)) {
    if (timed_) end_block(tc, pt);
    if (!should_endgame(tc.tid)) {
      i64 want = minor_chunk_;  // a timed thread's sampling chunk
      if (!timed_ || pt.blocks > 0) {
        const double r = ratio_[static_cast<usize>(tc.core_type)].load(
            std::memory_order_relaxed);
        want = std::max<i64>(
            minor_chunk_,
            std::llround(r * static_cast<double>(major_chunk_)));
      }
      ++pt.blocks;
      out = pool_.take(want, tc.tid);
      pt.block_iters = out.size();
      return !out.empty();
    }
    // Fig. 5 caption optimization: with only M·(NB+NS) iterations left, a
    // full block could strand the tail on one thread; finish with
    // dynamic(m) instead. Blocks still unrecorded no longer matter.
    endgame_.store(true, std::memory_order_release);
  }
  out = pool_.take(minor_chunk_, tc.tid);
  return !out.empty();
}

SchedulerStats AidDynamicScheduler::stats() const {
  return {.pool_removals = pool_.removals(),
          .estimated_sf = reported_sf_,
          .aid_phases = recomputes_.load(std::memory_order_relaxed),
          .local_removals = pool_.local_removals(),
          .steal_removals = pool_.remote_removals(),
          .shard_rebalances = pool_.rebalances()};
}

std::vector<double> AidDynamicScheduler::progress_ratios() const {
  std::vector<double> r(static_cast<usize>(estimator_.num_core_types()));
  for (usize t = 0; t < r.size(); ++t)
    r[t] = ratio_[t].load(std::memory_order_relaxed);
  return r;
}

}  // namespace aid::sched
