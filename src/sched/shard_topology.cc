#include "sched/shard_topology.h"

#include "common/check.h"

namespace aid::sched {

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
    case ScheduleKind::kAidDynamic:
      // Caller-sized takes: a private home word per thread, thieves bulk-
      // migrate. AID's blocks are each thread's own share, so its home
      // shard already holds it.
      return per_thread(layout);
  }
  AID_CHECK(false);
  return {};
}

}  // namespace aid::sched
