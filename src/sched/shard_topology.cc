#include "sched/shard_topology.h"

#include "common/check.h"

namespace aid::sched {

ShardTopology ShardTopology::per_core_type(
    const platform::TeamLayout& layout) {
  // Shards are the *populated* core types: a type no team thread sits on
  // must not own iterations (nobody would drain them without stealing).
  std::vector<int> shard_of_type(
      static_cast<usize>(layout.num_core_types()), -1);
  int nshards = 0;
  for (int t = 0; t < layout.num_core_types(); ++t)
    if (layout.threads_of_type(t) > 0)
      shard_of_type[static_cast<usize>(t)] = nshards++;
  AID_CHECK(nshards > 0);
  // One shard == the classic single pool: return the empty topology so
  // nothing is allocated here or copied per construct.
  if (nshards == 1) return {};

  ShardTopology topo;
  topo.capacity.assign(static_cast<usize>(nshards), 0.0);
  topo.home_of_tid.resize(static_cast<usize>(layout.nthreads()));
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    const int s = shard_of_type[static_cast<usize>(layout.core_type_of(tid))];
    topo.home_of_tid[static_cast<usize>(tid)] = s;
    topo.capacity[static_cast<usize>(s)] += layout.speed_of(tid);
  }
  return topo;
}

ShardTopology ShardTopology::per_thread(const platform::TeamLayout& layout) {
  if (layout.nthreads() < 2) return {};
  ShardTopology topo;
  topo.home_of_tid.resize(static_cast<usize>(layout.nthreads()));
  topo.capacity.resize(static_cast<usize>(layout.nthreads()));
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    topo.home_of_tid[static_cast<usize>(tid)] = tid;
    topo.capacity[static_cast<usize>(tid)] = layout.speed_of(tid);
  }
  return topo;
}

ShardTopology ShardTopology::for_schedule(ScheduleKind kind,
                                          const platform::TeamLayout& layout) {
  switch (kind) {
    case ScheduleKind::kStatic:
      return {};  // no pool to shard
    case ScheduleKind::kGuided:
    case ScheduleKind::kTrapezoid:
    case ScheduleKind::kWeightedFactoring:
      // The related-work baselines size chunks from the whole loop's
      // remainder: they hold libgomp's single work share and take no
      // topology. The empty one says so to callers that ask.
      return {};
    case ScheduleKind::kDynamic:
    case ScheduleKind::kAidStatic:
    case ScheduleKind::kAidHybrid:
      // Fixed-size takes: a private home word per thread, thieves bulk-
      // migrate. AID's blocks are each thread's own share, so its home
      // shard already holds it.
      return per_thread(layout);
    case ScheduleKind::kAidDynamic:
      // Per thread where the per-core-type layout would collapse to one
      // shared cursor; per core type on an AMP, where per-thread shards
      // measured slower on serve-mix (src/sched/README.md).
      return layout.is_uniform() ? per_thread(layout) : per_core_type(layout);
  }
  AID_CHECK(false);
  return {};
}

}  // namespace aid::sched
