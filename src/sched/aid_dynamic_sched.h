// AID-dynamic (paper Sec. 4.2, Fig. 5) — the asymmetry-aware replacement for
// OpenMP `dynamic`.
//
// Two user chunks: minor m and Major M >= m. Execution alternates between
// phases where all threads steal m iterations (the initial sampling phase,
// plus wait windows) and *AID phases* where iterations are removed unevenly
// in a single pool operation per thread: M per small-core thread, R·M per
// big-core thread. R is the relative big-over-small progress, continuously
// re-measured: R starts at the sampled SF and, after every AID phase, is
// updated with that phase's observed per-type progress rates (the paper's
// R ← R′·SM smoothing — measuring rates over the previous phase computes
// exactly R′·SM, see sf_estimator.h).
//
// Endgame optimization (Fig. 5 caption): as soon as the remaining iteration
// count is no greater than M·(NB+NS), the scheduler switches everyone to
// plain dynamic(m), which removes the end-of-loop imbalance that makes
// conventional dynamic so chunk-sensitive (paper Sec. 5B / Fig. 8).
//
// The design is non-blocking throughout: "waiting" threads steal m-chunks
// (their count δᵢ is deducted from the next allotment), and a drained pool
// simply ends the loop for whichever thread observes it — so the scheduler
// cannot deadlock even when a phase never completes.
//
// R shapes the allotments only. The sharded pool (one shard per thread on a
// uniform team, one per core type on an AMP: ShardTopology::for_schedule) is
// not re-weighted by it at phase boundaries: a shard that drains early
// bulk-steals from the others (sharded_work_share.h), and feeding R into
// the shards a second time measured slower (src/sched/README.md).
//
// A phase is as short as N·M iterations, so its bookkeeping stays on two
// shared lines: each thread's record() is one RMW on the estimator's record
// line (sf_estimator.h), and the closer publishes R on the epoch line, which
// every waiting thread polls anyway. The endgame test reads the caller's
// home shard first and scans the whole pool only when that shard alone no
// longer exceeds M·N.
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
  /// `endgame_enabled` gates the Fig. 5 caption optimization; disabling it
  /// exists only for the ablation study.
  AidDynamicScheduler(i64 count, const platform::TeamLayout& layout,
                      i64 minor_chunk, i64 major_chunk,
                      bool endgame_enabled = true, ShardTopology topo = {});

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

  /// Current per-type progress ratios R_t (R of the slowest type == 1);
  /// exposed for tests. Only stable between phases.
  [[nodiscard]] std::vector<double> progress_ratios() const;

  [[nodiscard]] bool in_endgame() const {
    return endgame_.load(std::memory_order_acquire);
  }

 private:
  enum class State : u8 {
    kSampling,   // first call: take the m-sized sampling chunk
    kHaveBlock,  // executing a timed block (sampling chunk or AID block)
    kWait,       // between phases: steal m, watch the epoch
  };

  /// Mutated only by its owning thread; stored as Padded<PerThread> so
  /// neighbors never false-share a cache line.
  struct PerThread {
    State state = State::kSampling;
    Nanos block_start = 0;
    i64 block_iters = 0;
    i64 delta = 0;       ///< steals since last allotment (δᵢ)
    i64 epoch_seen = 0;  ///< last phase epoch this thread joined
  };

  /// Last thread of a phase: recompute R from the estimator, start the
  /// estimator's next phase and publish the next epoch.
  void close_phase();

  /// Try to enter the current phase: take the uneven allotment (or record a
  /// no-op completion when δᵢ already covers the target). Returns true when
  /// `out` was filled.
  bool enter_phase(ThreadContext& tc, PerThread& pt, IterRange& out);

  bool steal_minor(PerThread& pt, const ThreadContext& tc, IterRange& out,
                   bool count_delta);

  /// remaining() <= M·N. The caller's home shard holds a lower bound on
  /// the pool's remainder, so while it alone exceeds M·N the answer is no
  /// without loading every other shard's segment lines.
  [[nodiscard]] bool should_endgame(int tid) const {
    if (!endgame_enabled_) return false;
    const i64 threshold = major_chunk_ * nthreads_;
    if (pool_.remaining_of_shard(pool_.home_of(tid)) > threshold) return false;
    return pool_.remaining() <= threshold;
  }

  ShardedWorkShare pool_;
  SfEstimator estimator_;

  // Read by every next(); written at most once per construct (endgame_ by
  // the threads that detect the endgame, reported_sf_ by the first
  // close_phase()).
  std::atomic<bool> endgame_{false};
  double reported_sf_ = 0.0;

  i64 count_;
  const i64 minor_chunk_;
  const i64 major_chunk_;
  const bool endgame_enabled_;
  const int nthreads_;
  std::vector<int> threads_per_type_;
  std::vector<double> nominal_speed_;
  std::vector<Padded<PerThread>> per_thread_;

  // Written once per phase by its closing thread, polled by the waiting
  // ones: R_t per core type shares the epoch's line (for up to 7 types),
  // so the miss on a new epoch also brings R. close_phase() writes ratio_
  // before the epoch's release store.
  alignas(kCacheLineBytes) std::atomic<i64> epoch_{0};  // 0 = sampling
  std::array<double, kMaxCoreTypes> ratio_{};
  std::atomic<i64> phases_completed_{0};
};

}  // namespace aid::sched
