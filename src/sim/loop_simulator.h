// Deterministic discrete-event execution of one parallel loop.
//
// This is the substitution for the paper's AMP hardware: the *actual*
// scheduler implementations from src/sched run unmodified, but each worker
// is a simulated entity with its own virtual clock. The engine
// repeatedly wakes the worker with the smallest clock (ties by thread id),
// lets it perform one next() call — charged per the OverheadModel — and, if
// it received iterations, advances its clock by the modelled execution time
// of those iterations on the worker's core type.
//
// Smallest-clock-first dispatch yields a valid linearization of the real
// concurrent execution: every pool operation happens at a virtual instant no
// earlier than any operation it observes. Because the engine is single-
// threaded, results are bit-for-bit reproducible.
#pragma once

#include <vector>

#include "common/time_source.h"
#include "platform/team_layout.h"
#include "sched/loop_scheduler.h"
#include "sim/cost_model.h"
#include "sim/overhead_model.h"
#include "trace/trace.h"

namespace aid::sim {

struct LoopResult {
  Nanos completion_ns = 0;  ///< barrier time: max worker finish time
  std::vector<Nanos> finish_ns;      ///< per-thread last-activity time
  std::vector<Nanos> busy_ns;        ///< per-thread iteration-execution time
  std::vector<Nanos> overhead_ns;    ///< per-thread runtime-interaction time
  std::vector<i64> iterations;       ///< per-thread executed iteration count
  i64 pool_removals = 0;
  double estimated_sf = 0.0;  ///< AID's sampled SF (0 for non-AID)
  i64 aid_phases = 0;

  [[nodiscard]] i64 total_iterations() const {
    i64 n = 0;
    for (i64 i : iterations) n += i;
    return n;
  }
};

class LoopSimulator {
 public:
  LoopSimulator(const platform::TeamLayout& layout, OverheadModel overhead);

  /// Execute one loop of `count` iterations through `sched`. The scheduler
  /// must already be armed for `count` iterations (freshly built or reset).
  /// `start_ns` is the virtual time at which the team enters the loop; the
  /// optional trace receives Running/Scheduling/Sync intervals.
  LoopResult run(sched::LoopScheduler& sched, i64 count,
                 const CostModel& cost, Nanos start_ns = 0,
                 trace::Trace* trace = nullptr);

 private:
  // TimeSource view over a worker's virtual clock.
  class WorkerClock final : public TimeSource {
   public:
    [[nodiscard]] Nanos now() const override { return t; }
    Nanos t = 0;
  };

  const platform::TeamLayout& layout_;
  OverheadModel overhead_;
};

}  // namespace aid::sim
