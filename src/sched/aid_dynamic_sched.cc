#include "sched/aid_dynamic_sched.h"

#include <cmath>
#include <span>

#include "common/check.h"

namespace aid::sched {

AidDynamicScheduler::AidDynamicScheduler(i64 count,
                                         const platform::TeamLayout& layout,
                                         i64 minor_chunk, i64 major_chunk,
                                         bool endgame_enabled,
                                         ShardTopology topo)
    : pool_(std::move(topo), layout.nthreads()),
      estimator_(layout.num_core_types()),
      count_(count),
      minor_chunk_(minor_chunk > 0 ? minor_chunk : 1),
      major_chunk_(major_chunk > 0 ? major_chunk : 5),
      endgame_enabled_(endgame_enabled),
      nthreads_(layout.nthreads()),
      per_thread_(static_cast<usize>(layout.nthreads())) {
  AID_CHECK(count >= 0);
  AID_CHECK_MSG(major_chunk_ >= minor_chunk_,
                "AID-dynamic requires M >= m (paper Sec. 4.2)");
  threads_per_type_.resize(static_cast<usize>(layout.num_core_types()));
  for (int t = 0; t < layout.num_core_types(); ++t)
    threads_per_type_[static_cast<usize>(t)] = layout.threads_of_type(t);
  nominal_speed_.assign(static_cast<usize>(layout.num_core_types()), 1.0);
  for (int tid = 0; tid < layout.nthreads(); ++tid)
    nominal_speed_[static_cast<usize>(layout.core_type_of(tid))] =
        layout.speed_of(tid);
  reset(count);
}

void AidDynamicScheduler::reset(i64 count) {
  AID_CHECK(count >= 0);
  count_ = count;
  pool_.reset(count);
  estimator_.reset(nthreads_);
  for (auto& pt : per_thread_) *pt = PerThread{};
  ratio_.fill(1.0);
  reported_sf_ = 0.0;
  phases_completed_.store(0, std::memory_order_relaxed);
  epoch_.store(0, std::memory_order_relaxed);
  endgame_.store(false, std::memory_order_release);
}

void AidDynamicScheduler::close_phase() {
  // Exactly one thread executes this per phase (the one whose record() call
  // returned true). All other threads are stealing m-chunks and cannot touch
  // the estimator until the next epoch is visible. The closer has seen the
  // current epoch (it recorded for this phase), and nobody else writes it:
  // plain stores suffice for the epoch and the phase count.
  const std::span<double> ratio(ratio_.data(), threads_per_type_.size());
  estimator_.speedup_factors(ratio, ratio);
  for (usize t = ratio.size(); t-- > 0;) {
    if (threads_per_type_[t] > 0) {
      if (reported_sf_ == 0.0) reported_sf_ = ratio[t];  // initial SF
      break;
    }
  }
  phases_completed_.store(
      phases_completed_.load(std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  estimator_.next_phase();
  epoch_.store(epoch_.load(std::memory_order_relaxed) + 1,
               std::memory_order_release);
}

bool AidDynamicScheduler::steal_minor(PerThread& pt, const ThreadContext& tc,
                                      IterRange& out, bool count_delta) {
  const IterRange r = pool_.take(minor_chunk_, tc.tid);
  if (r.empty()) return false;
  if (count_delta) pt.delta += r.size();
  out = r;
  return true;
}

bool AidDynamicScheduler::enter_phase(ThreadContext& tc, PerThread& pt,
                                      IterRange& out) {
  // Fig. 5 caption optimization: with only M·(NB+NS) iterations left, a full
  // AID allotment could strand the tail on one thread; finish with
  // dynamic(m) instead.
  if (should_endgame(tc.tid)) {
    endgame_.store(true, std::memory_order_release);
    pt.state = State::kWait;
    return steal_minor(pt, tc, out, /*count_delta=*/false);
  }

  const double r_t = ratio_[static_cast<usize>(tc.core_type)];
  const i64 target =
      std::llround(r_t * static_cast<double>(major_chunk_));
  const i64 want = target - pt.delta;
  if (want < 1) {
    // The wait-window steals already covered this phase's share: report an
    // immediate (zero-iteration) completion, carry the excess δᵢ into the
    // next phase and keep stealing.
    pt.delta = -want;
    if (estimator_.record(tc.core_type, 0, 0)) close_phase();
    pt.state = State::kWait;
    return steal_minor(pt, tc, out, /*count_delta=*/true);
  }
  pt.delta = 0;
  const IterRange r = pool_.take(want, tc.tid);
  if (r.empty()) {
    // Pool drained under us; still count the phase contribution so peers
    // are not stalled, then end this worker's loop.
    if (estimator_.record(tc.core_type, 0, 0)) close_phase();
    pt.state = State::kWait;
    return false;
  }
  pt.block_start = tc.now();
  pt.block_iters = r.size();
  pt.state = State::kHaveBlock;
  out = r;
  return true;
}

bool AidDynamicScheduler::next(ThreadContext& tc, IterRange& out) {
  // Cancellation: poison and bail before any state transition. A thread
  // cancelled mid-phase leaves its in-flight block unrecorded — harmless,
  // the estimator is rebuilt by reset() before the instance is reused.
  if (tc.cancelled()) [[unlikely]] {
    pool_.poison();
    out = {pool_.end(), pool_.end()};
    return false;
  }
  AID_DCHECK(tc.tid >= 0 && tc.tid < nthreads_);
  PerThread& pt = *per_thread_[static_cast<usize>(tc.tid)];

  if (endgame_.load(std::memory_order_acquire)) {
    // Terminal mode: conventional dynamic(m) to the end of the loop.
    if (pt.state == State::kHaveBlock) {
      // Account the in-flight block first so the estimator never waits on a
      // thread that slipped into the endgame mid-phase.
      if (estimator_.record(tc.core_type, tc.now() - pt.block_start,
                            pt.block_iters))
        close_phase();
      pt.state = State::kWait;
    }
    return steal_minor(pt, tc, out, /*count_delta=*/false);
  }

  switch (pt.state) {
    case State::kSampling: {
      pt.block_start = tc.now();
      const IterRange r = pool_.take(minor_chunk_, tc.tid);
      if (r.empty()) {
        if (estimator_.record(tc.core_type, 0, 0)) close_phase();
        pt.state = State::kWait;
        return false;
      }
      pt.block_iters = r.size();
      pt.state = State::kHaveBlock;
      out = r;
      return true;
    }

    case State::kHaveBlock: {
      const Nanos elapsed = tc.now() - pt.block_start;
      if (estimator_.record(tc.core_type, elapsed, pt.block_iters))
        close_phase();
      pt.state = State::kWait;
      [[fallthrough]];
    }

    case State::kWait: {
      const i64 cur_epoch = epoch_.load(std::memory_order_acquire);
      if (cur_epoch != pt.epoch_seen) {
        pt.epoch_seen = cur_epoch;
        return enter_phase(tc, pt, out);
      }
      // Phase still in flight elsewhere: keep the core busy with m-steals.
      return steal_minor(pt, tc, out, /*count_delta=*/true);
    }
  }
  AID_CHECK(false);
  return false;
}

SchedulerStats AidDynamicScheduler::stats() const {
  return {.pool_removals = pool_.removals(),
          .estimated_sf = reported_sf_,
          .aid_phases = phases_completed_.load(std::memory_order_relaxed),
          .local_removals = pool_.local_removals(),
          .steal_removals = pool_.remote_removals(),
          .shard_rebalances = pool_.rebalances()};
}

std::vector<double> AidDynamicScheduler::progress_ratios() const {
  const auto ntypes = static_cast<std::ptrdiff_t>(threads_per_type_.size());
  return {ratio_.begin(), ratio_.begin() + ntypes};
}

}  // namespace aid::sched
