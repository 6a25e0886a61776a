#include "common/check.h"
#include "sched/aid_block_sched.h"
#include "sched/aid_dynamic_sched.h"
#include "sched/dynamic_sched.h"
#include "sched/factoring_sched.h"
#include "sched/guided_sched.h"
#include "sched/loop_scheduler.h"
#include "sched/static_sched.h"
#include "sched/trapezoid_sched.h"

namespace aid::sched {

namespace {

std::unique_ptr<LoopScheduler> build(const ScheduleSpec& spec, i64 count,
                                     const platform::TeamLayout& layout,
                                     bool sharded) {
  // This is the cold construction path: the runtime layers front it with
  // a per-shape SchedulerCache (sched/scheduler_cache.h) that re-arms an
  // idle instance via reset() per construct, so this switch runs once per
  // (shape, layout generation) — not once per loop.
  //
  // `sharded` reaches only the kinds whose takes the caller sizes:
  // dynamic's chunk and the AID blocks, each taken from the caller's own
  // shard. Static has no pool, and guided, trapezoid and weighted
  // factoring size each chunk from the loop's remainder, so they hold
  // libgomp's single work share, where that remainder is the whole loop's.
  switch (spec.kind) {
    case ScheduleKind::kStatic:
      return std::make_unique<StaticScheduler>(count, layout, spec.chunk);
    case ScheduleKind::kDynamic:
      return std::make_unique<DynamicScheduler>(
          count, layout, spec.effective_chunk(), sharded);
    case ScheduleKind::kGuided:
      return std::make_unique<GuidedScheduler>(count, layout,
                                               spec.effective_chunk());
    case ScheduleKind::kAidStatic:
      return std::make_unique<AidBlockScheduler>(
          count, layout, spec.effective_chunk(), /*aid_fraction=*/1.0,
          spec.offline_sf,
          spec.offline_sf ? "aid-static(offline-SF)" : "aid-static",
          sharded);
    case ScheduleKind::kAidHybrid:
      AID_CHECK_MSG(spec.hybrid_percent > 0.0 && spec.hybrid_percent <= 100.0,
                    "AID-hybrid percentage must be in (0, 100]");
      return std::make_unique<AidBlockScheduler>(
          count, layout, spec.effective_chunk(), spec.hybrid_percent / 100.0,
          spec.offline_sf, "aid-hybrid", sharded);
    case ScheduleKind::kAidDynamic:
      return std::make_unique<AidDynamicScheduler>(
          count, layout, spec.effective_chunk(), spec.major_chunk,
          spec.aid_endgame, sharded);
    case ScheduleKind::kTrapezoid:
      return std::make_unique<TrapezoidScheduler>(count, layout, spec.chunk,
                                                  spec.major_chunk);
    case ScheduleKind::kWeightedFactoring:
      return std::make_unique<WeightedFactoringScheduler>(count, layout);
  }
  AID_CHECK(false);
  return nullptr;
}

}  // namespace

std::unique_ptr<LoopScheduler> make_scheduler(
    const ScheduleSpec& spec, i64 count,
    const platform::TeamLayout& layout) {
  // Single-pool arm: the simulator keeps modeling the paper's one libgomp
  // work share.
  return build(spec, count, layout, /*sharded=*/false);
}

std::unique_ptr<LoopScheduler> make_sharded_scheduler(
    const ScheduleSpec& spec, i64 count,
    const platform::TeamLayout& layout) {
  return build(spec, count, layout, /*sharded=*/true);
}

}  // namespace aid::sched
