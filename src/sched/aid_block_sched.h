// AID-static and AID-hybrid (paper Sec. 4.2, Fig. 3).
//
// Both distribute a block of iterations unevenly, proportional to the
// per-loop speedup factor estimated online by a sampling phase:
//
//   SAMPLING ──(not last to finish)──> SAMPLING_WAIT ──(all done)──> AID
//       └─────(last to finish: computes SF and k)────────────────────┘
//
//  * SAMPLING: every thread removes `chunk` iterations and times their
//    execution (two timestamps, paper Sec. 4.2).
//  * SAMPLING_WAIT: threads keep stealing `chunk` iterations dynamically so
//    no core idles while the slowest sampler finishes.
//  * AID: one final pool removal per thread of size SF_t·k − δᵢ, where δᵢ is
//    whatever the thread already executed (sampling + wait steals).
//
// k = F·NI / Σ_t N_t·SF_t, with F = 1 for AID-static and F = P/100 for
// AID-hybrid. The iterations beyond the AID block (none for AID-static up to
// rounding; (100−P)% for AID-hybrid) are drained with conventional dynamic
// `chunk`-stealing, which is exactly the paper's hybrid tail.
//
// The Fig. 9 offline-SF variant (AID-static(offline-SF)) skips the sampling
// phase entirely and trusts a caller-provided SF.
//
// Lock-free: the pool is a fetch-add ShardedWorkShare; sampling bookkeeping
// is the SfEstimator's atomic counters (paper: "the implementation of
// AID-static is lock free"). The runtime arms the pool sharded, one shard
// per thread (make_sharded_scheduler), so each thread's AID block comes
// from its own shard. The measured SF shapes the AID blocks only: it is
// not fed back into the shards, which keep their nominal-speed split and
// rebalance themselves by bulk steals. Only the offline-SF variant, whose
// SF is known before the loop starts, arms its shards by SF (once, in
// reset()).
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "common/padded.h"
#include "sched/loop_scheduler.h"
#include "sched/sf_estimator.h"
#include "sched/sharded_work_share.h"

namespace aid::sched {

class AidBlockScheduler final : public LoopScheduler {
 public:
  /// `aid_fraction` — portion of NI distributed asymmetrically: 1.0 for
  /// AID-static, P/100 for AID-hybrid. `offline_sf` — skip sampling and use
  /// this SF for the fastest core type (Fig. 9 variant). `sharded` gives
  /// the pool one shard per thread; else it is the single pool.
  AidBlockScheduler(i64 count, const platform::TeamLayout& layout, i64 chunk,
                    double aid_fraction, std::optional<double> offline_sf,
                    std::string name, bool sharded);

  bool next(ThreadContext& tc, IterRange& out) override;
  void reset(i64 count) override;
  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] SchedulerStats stats() const override;
  [[nodiscard]] i64 pool_removals_of(int tid) const override {
    return pool_.removals_of(tid);
  }
  [[nodiscard]] i64 remaining() const override { return pool_.remaining(); }

  /// The per-thread AID target for a core type (SF_t·k, rounded), exposed
  /// for tests of the distribution math.
  [[nodiscard]] i64 target_of_type(int core_type) const;

  /// True once SF/k have been published (sampling finished or offline SF).
  [[nodiscard]] bool aid_ready() const {
    return aid_ready_.load(std::memory_order_acquire);
  }

 private:
  enum class State : u8 {
    kSampling,       // first call: take the sampling chunk
    kAfterSampling,  // second call: record timing, maybe finalize
    kWait,           // stealing chunks until SF/k are published
    kAid,            // take the final uneven block
    kDrain,          // hybrid tail / rounding leftovers: dynamic stealing
  };

  /// Mutated only by its owning thread; stored as Padded<PerThread> so
  /// neighbors never false-share a cache line.
  struct PerThread {
    State state = State::kSampling;
    Nanos sample_start = 0;
    i64 sampled = 0;  ///< iterations in the sampling chunk
    i64 delta = 0;    ///< δᵢ: iterations executed before entering AID
  };

  void finalize();
  bool take_aid_block(ThreadContext& tc, PerThread& pt, IterRange& out);
  bool drain(IterRange& out, int tid);

  ShardedWorkShare pool_;
  SfEstimator estimator_;
  std::atomic<bool> aid_ready_{false};

  // Written by the finalizing thread before the aid_ready_ release store;
  // read by everyone else after an acquire load. Sized in the ctor so
  // finalize() performs no allocation.
  std::vector<double> sf_;
  std::vector<double> shard_rate_;  ///< offline SF per thread (reset())
  double k_ = 0.0;
  double reported_sf_ = 0.0;

  i64 count_;
  const i64 chunk_;
  const double aid_fraction_;
  const std::optional<double> offline_sf_;
  const std::string name_;
  const int nthreads_;
  std::vector<int> threads_per_type_;
  std::vector<double> nominal_speed_;
  std::vector<int> type_of_tid_;  ///< feeds shard_rate_
  std::vector<Padded<PerThread>> per_thread_;
};

}  // namespace aid::sched
