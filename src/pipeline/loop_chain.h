// Loop chains: a sequence of data-parallel loops executed with OpenMP
// `nowait` semantics (the loop-pipeline subsystem's description type).
//
// A LoopChain is a program, not an executor: each entry names a loop's trip
// count, schedule, body, and (optionally) one earlier entry that must fully
// complete before this one may start anywhere (`depends_on` — the analog of
// a `#pragma omp for` that reads what a previous, non-adjacent loop wrote
// with mismatched distribution). Entries WITHOUT a dependency edge run with
// true nowait overlap: a team member that drains its share of loop k flows
// straight into loop k+1 while stragglers are still finishing loop k.
//
// Execution is the runtime engine's one chain driver (rt::WorkerPool::
// run_chain in rt/worker_pool.h), reached through rt::Team::run_chain,
// pool::AppHandle::run_chain and rt::Runtime::run_chain: the chain's loops
// are published as consecutive dock generations into a small ring of
// in-flight entries, and each worker advances through the ring locally.
// The master blocks only at the chain's end (the implicit flush). See
// src/pipeline/README.md for the design note.
#pragma once

#include <vector>

#include "common/types.h"
#include "rt/worker_pool.h"
#include "sched/schedule_spec.h"

namespace aid::pipeline {

/// One loop of a chain. `depends_on` is the index of an earlier chain entry
/// that must be fully complete (every iteration, every team member) before
/// any iteration of this loop runs; -1 means no cross-loop dependency and
/// the loop may overlap its predecessors freely (nowait).
struct ChainedLoop {
  i64 count = 0;
  sched::ScheduleSpec spec;
  rt::RangeBody body;
  int depends_on = -1;
};

/// Builder/value type for a chain of dependent data-parallel loops. Bodies
/// are stored by value (std::function); the chain must outlive any
/// run_chain call executing it.
class LoopChain {
 public:
  LoopChain() = default;

  /// Append a loop; returns its chain index (usable as a later entry's
  /// `depends_on`). `depends_on` must be -1 or a previously returned index.
  int add(i64 count, const sched::ScheduleSpec& spec, rt::RangeBody body,
          int depends_on = -1);

  /// Append a loop that must wait for chain entry `dep` to fully complete.
  int add_after(int dep, i64 count, const sched::ScheduleSpec& spec,
                rt::RangeBody body) {
    return add(count, spec, std::move(body), dep);
  }

  /// Bind a cancellation token and/or per-entry deadline to every entry
  /// that does not already name its own (the hook behind
  /// Runtime::run_chain's cancel/deadline overload): one token reaches
  /// the whole chain without per-entry spec plumbing. The deadline is
  /// relative to each entry's own publication, not the chain's start.
  void bind_cancel(CancelToken* cancel, i64 deadline_ns = 0);

  [[nodiscard]] const std::vector<ChainedLoop>& loops() const {
    return loops_;
  }
  [[nodiscard]] usize size() const { return loops_.size(); }
  [[nodiscard]] bool empty() const { return loops_.empty(); }

 private:
  std::vector<ChainedLoop> loops_;
};

}  // namespace aid::pipeline
