// Shard layout for per-core-type iteration pools.
//
// A ShardTopology maps every team thread to a *home shard* — the pool
// partition whose hot {next, end} line only same-cluster threads write on
// the fast path (see sched/sharded_work_share.h and src/sched/README.md).
// Shards correspond to the populated core types of a TeamLayout: on a
// big.LITTLE team there is one big-core shard and one small-core shard, so
// the self-scheduling fetch-and-add traffic of each cluster stays
// cluster-local (the Catalán et al. / Krishna & Balachandran partitioning
// argument, PAPERS.md).
//
// The topology is *mechanism description*, not policy: it is computed once
// per construct from the layout that will execute it, which is what keeps
// shard membership coherent across pool repartitions — a partition change
// commits between ring entries (pool/pool_manager.cc), and every entry's
// scheduler is built from the layout current at publish time. The pool
// looks a thread's home shard up in its own copy of the topology.
#pragma once

#include <vector>

#include "common/types.h"
#include "platform/team_layout.h"

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

  /// One shard per populated core type of `layout`; a layout with one
  /// populated type yields the empty (single-shard) topology.
  [[nodiscard]] static ShardTopology from_layout(
      const platform::TeamLayout& layout);
};

}  // namespace aid::sched
