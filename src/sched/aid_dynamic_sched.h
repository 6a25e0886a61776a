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
// R shapes the allotments only. The per-core-type sharded pool is not
// re-weighted by it at phase boundaries: a cluster whose shard drains
// early bulk-steals from the other (sharded_work_share.h), and feeding R
// into the shards a second time measured slower (src/sched/README.md).
#pragma once

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

  /// Last thread of a phase: recompute R from the estimator, re-arm the
  /// estimator and publish the next epoch.
  void close_phase();

  /// Try to enter the current phase: take the uneven allotment (or record a
  /// no-op completion when δᵢ already covers the target). Returns true when
  /// `out` was filled.
  bool enter_phase(ThreadContext& tc, PerThread& pt, IterRange& out);

  bool steal_minor(PerThread& pt, const ThreadContext& tc, IterRange& out,
                   bool count_delta);

  [[nodiscard]] bool should_endgame() const {
    return endgame_enabled_ && pool_.remaining() <= major_chunk_ * nthreads_;
  }

  ShardedWorkShare pool_;
  SfEstimator estimator_;

  // Read by every next(); written at most once per construct (endgame_ by
  // the threads that detect the endgame, reported_sf_ by the first
  // close_phase()). ratio_'s elements are rewritten in place per phase.
  std::atomic<bool> endgame_{false};
  std::vector<double> ratio_;  // R_t per core type
  double reported_sf_ = 0.0;

  i64 count_;
  const i64 minor_chunk_;
  const i64 major_chunk_;
  const bool endgame_enabled_;
  const int nthreads_;
  std::vector<int> threads_per_type_;
  std::vector<double> nominal_speed_;
  std::vector<Padded<PerThread>> per_thread_;

  // Written once per phase by its closing thread: alone on their line.
  // close_phase() publishes ratio_ before the epoch release-increment.
  alignas(kCacheLineBytes) std::atomic<i64> epoch_{0};  // 0 = sampling
  std::atomic<i64> phases_completed_{0};
};

}  // namespace aid::sched
