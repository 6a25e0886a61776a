#include "sched/shard_topology.h"

#include "common/check.h"

namespace aid::sched {

ShardTopology ShardTopology::from_layout(const platform::TeamLayout& layout) {
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
  // nothing is allocated here or copied per construct (uniform layouts
  // arm thousands of loops through this path).
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

}  // namespace aid::sched
