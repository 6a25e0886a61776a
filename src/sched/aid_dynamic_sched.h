// AID-dynamic (paper Sec. 4.2, Fig. 5) — the asymmetry-aware replacement for
// OpenMP `dynamic`.
//
// Two user chunks: minor m and Major M >= m. Each thread first times an
// m-iteration sampling chunk and from then on removes round(R_t·M)
// iterations per pool operation: M per small-core thread, R·M per big-core
// thread. R_t is the progress of core type t relative to the slowest
// populated type (R = 1 there). It starts at 1 and is re-measured from the
// per-type progress rates recorded since the previous recompute (the
// paper's R ← R′·SM smoothing — measuring rates over a window computes
// exactly R′·SM, see sf_estimator.h).
//
// Endgame optimization (Fig. 5 caption): as soon as the remaining iteration
// count is no greater than M·(NB+NS), the scheduler switches everyone to
// plain dynamic(m), which removes the end-of-loop imbalance that makes
// conventional dynamic so chunk-sensitive (paper Sec. 5B / Fig. 8).
//
// Where this departs from Fig. 5: there is no phase rendezvous. A thread
// whose sampling chunk or block ends records it and at once takes its next
// block with the last published R; nobody waits for its peers, so nobody
// steals m-chunks in a wait window or carries their count δᵢ into the next
// allotment. Every N-th record recomputes R. One recompute runs at a time,
// behind a try-flag (a recorder that finds it taken skips, and its records
// fall into the next window), and R is published in relaxed atomics. A
// thread records its sampling chunk alone and then folds kBlocksPerRecord
// blocks into each record, so a record, one RMW on the estimator's line,
// is rare. It holds those records back until the first recompute, so the
// first window is one sampling chunk per thread, as in Fig. 5's sampling
// phase, and its R is the loop's reported SF. On a uniform team R ≡ 1: a
// thread reads no clock, records nothing and starts on an M block.
// src/sched/README.md gives the measured reason for the departure.
//
// The design is non-blocking throughout: a drained pool simply ends the
// loop for whichever thread observes it.
//
// R shapes the blocks only. The sharded pool (one shard per thread, as
// make_sharded_scheduler arms it) is not re-weighted by it: a shard that
// drains early bulk-steals from the others (sharded_work_share.h), and
// feeding R into the shards a second time measured slower
// (src/sched/README.md). The endgame test reads the caller's own shard
// first and scans the whole pool only when that shard alone no longer
// exceeds M·N.
#pragma once

#include <array>
#include <atomic>
#include <vector>

#include "common/padded.h"
#include "sched/loop_scheduler.h"
#include "sched/sf_estimator.h"
#include "sched/sharded_work_share.h"

namespace aid::sched {

class AidDynamicScheduler final : public LoopScheduler {
 public:
  /// Blocks a thread folds into one SfEstimator::record after its sampling
  /// chunk, which it records alone.
  static constexpr i64 kBlocksPerRecord = 4;

  /// `endgame_enabled` gates the Fig. 5 caption optimization; disabling it
  /// exists only for the ablation study. `sharded` gives the pool one
  /// shard per thread; else it is the single pool.
  AidDynamicScheduler(i64 count, const platform::TeamLayout& layout,
                      i64 minor_chunk, i64 major_chunk, bool endgame_enabled,
                      bool sharded);

  bool next(ThreadContext& tc, IterRange& out) override;
  void reset(i64 count) override;
  [[nodiscard]] std::string_view name() const override {
    return "aid-dynamic";
  }
  [[nodiscard]] SchedulerStats stats() const override;
  [[nodiscard]] i64 pool_removals_of(int tid) const override {
    return pool_.removals_of(tid);
  }
  [[nodiscard]] i64 remaining() const override { return pool_.remaining(); }

  /// Current per-type progress ratios R_t (R of the slowest populated type
  /// == 1); exposed for tests.
  [[nodiscard]] std::vector<double> progress_ratios() const;

  [[nodiscard]] bool in_endgame() const {
    return endgame_.load(std::memory_order_acquire);
  }

 private:
  /// Mutated only by its owning thread; stored as Padded<PerThread> so
  /// neighbors never false-share a cache line.
  struct PerThread {
    Nanos block_start = 0;
    i64 block_iters = 0;  ///< the timed block in flight; 0: none
    i64 blocks = 0;       ///< blocks taken, the sampling chunk included
    Nanos folded_time = 0;  ///< blocks ended since this thread's last record
    i64 folded_iters = 0;
  };

  /// Ends the caller's timed block: folds it into its private sums and
  /// records them when a record is due.
  void end_block(const ThreadContext& tc, PerThread& pt);

  /// Recompute R from the rates recorded since the previous recompute,
  /// unless one is running already.
  void recompute();

  /// remaining() <= M·N. The caller's own shard holds a lower bound on
  /// the pool's remainder, so while it alone exceeds M·N the answer is no
  /// without loading every other shard's word.
  [[nodiscard]] bool should_endgame(int tid) const {
    if (!endgame_enabled_) return false;
    const i64 threshold = major_chunk_ * nthreads_;
    if (pool_.remaining_of_shard(tid) > threshold) return false;
    return pool_.remaining() <= threshold;
  }

  ShardedWorkShare pool_;
  SfEstimator estimator_;

  // Read by every next(); written at most once per construct.
  std::atomic<bool> endgame_{false};

  const i64 minor_chunk_;
  const i64 major_chunk_;
  const bool endgame_enabled_;
  const int nthreads_;
  const bool timed_;  ///< the team spans core types; false: R ≡ 1
  usize fastest_type_ = 0;  ///< the fastest core type with team threads
  std::vector<Padded<PerThread>> per_thread_;

  /// R_t per core type: loaded by every block take, stored by recompute().
  alignas(kCacheLineBytes) std::array<std::atomic<double>, kMaxCoreTypes>
      ratio_{};

  // The try-flag, and what only its holder writes. end_block() polls the
  // recompute count for the first window's close; stats() reads both after
  // the construct.
  alignas(kCacheLineBytes) std::atomic<bool> recomputing_{false};
  std::atomic<i64> recomputes_{0};
  double reported_sf_ = 0.0;
};

}  // namespace aid::sched
