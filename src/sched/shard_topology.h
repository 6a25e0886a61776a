// Shard layout for sharded iteration pools.
//
// A ShardTopology maps every team thread to a *home shard* — the pool
// partition whose hot segment word only that shard's members write on the
// fast path (see sched/sharded_work_share.h and src/sched/README.md). The
// schedule kind picks the layout (for_schedule): one shard per team thread,
// capacity = its nominal speed, for `dynamic` and the three AID schedules.
// A take is then an RMW on a word no other thread writes until a thief
// bulk-migrates from it: the nonmonotonic `dynamic` OpenMP 5.0 allows (LLVM
// libomp's static_steal), carried over to the AID allotments and blocks.
// Static and the related-work baselines (guided, trapezoid, weighted
// factoring) get the empty topology: no pool, or libgomp's single work
// share.
//
// The topology is *mechanism description*, not policy: it is derived from
// the layout a scheduler is built for (the factory's cache-miss path), which
// is what keeps shard membership coherent across pool repartitions — a
// partition change invalidates the owner's scheduler cache, so every
// scheduler built afterwards derives its topology from the new layout. The
// pool looks a thread's home shard up in its own copy of the topology.
#pragma once

#include <vector>

#include "common/types.h"
#include "platform/team_layout.h"
#include "sched/schedule_spec.h"

namespace aid::sched {

struct ShardTopology {
  /// tid -> home shard id. Empty means "single shard" (the default for
  /// every caller that does not opt into sharding, e.g. the simulator).
  std::vector<int> home_of_tid;
  /// shard -> nominal capacity (sum of member threads' nominal speeds);
  /// the initial iteration split is proportional to this.
  std::vector<double> capacity;

  [[nodiscard]] int nshards() const {
    return capacity.empty() ? 1 : static_cast<int>(capacity.size());
  }

  /// One shard per thread of `layout` (home = tid, capacity = its nominal
  /// speed); a one-thread layout yields the empty topology.
  [[nodiscard]] static ShardTopology per_thread(
      const platform::TeamLayout& layout);

  /// The topology a runtime-built scheduler of `kind` arms on `layout` —
  /// the one place that choice is made. Per thread for `dynamic`,
  /// `aid-static`, `aid-hybrid` and `aid-dynamic`; empty for static (no
  /// pool) and for guided, trapezoid and weighted factoring (one shared
  /// work share).
  [[nodiscard]] static ShardTopology for_schedule(
      ScheduleKind kind, const platform::TeamLayout& layout);
};

}  // namespace aid::sched
