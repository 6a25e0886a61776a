// Environment-driven runtime configuration.
//
// The paper's activation story (Sec. 4.1): applications are *not* modified —
// a one-line GCC change routes every schedule-less loop through the runtime,
// and the user picks the method via the environment. libaid mirrors this:
//
//   AID_SCHEDULE      — OMP_SCHEDULE analog, e.g. "static", "dynamic,4",
//                       "aid-static", "aid-hybrid,1,80", "aid-dynamic,1,5".
//                       Loops executed without an explicit ScheduleSpec use
//                       this value. Default: "static" (the libgomp default).
//   AID_NUM_THREADS   — team size. Default: all cores of the platform,
//                       which is also what a value above the platform's
//                       core count gets (with a warning).
//   AID_AMP_AFFINITY  — GOMP_AMP_AFFINITY analog: when set (truthy), the
//                       runtime binds threads so that the lowest thread ids
//                       sit on the big cores (the BS mapping AID assumes,
//                       Sec. 4.3). When unset, SB is used.
//   AID_EMULATE_AMP   — duty-cycle emulation of small cores on a symmetric
//                       host (see rt/throttle.h). Default: on, because the
//                       build machine is symmetric; set to 0 on real AMPs.
//   AID_BIND_THREADS  — pin worker threads to core ids (best-effort).
//   AID_POOL          — when truthy, the global runtime does not build a
//                       private worker team; it leases a partition from the
//                       process-wide PoolManager (src/pool/), so several
//                       runtimes/apps in one process share a single worker
//                       pool with per-app core partitions (Sec. 4.3 / 5C).
//                       Partition sizing then belongs to the arbiter:
//                       AID_NUM_THREADS and AID_AMP_AFFINITY do not apply,
//                       and the runtime reports the pool's platform.
//   AID_POOL_POLICY   — pool arbitration policy: "equal" (default),
//                       "big-priority", or "proportional".
#pragma once

#include <string>

#include "platform/team_layout.h"
#include "sched/schedule_spec.h"

namespace aid::rt {

struct RuntimeConfig {
  sched::ScheduleSpec schedule = sched::ScheduleSpec::static_even();
  int num_threads = 0;  ///< 0 = one per platform core
  platform::Mapping mapping = platform::Mapping::kSmallFirst;
  bool emulate_amp = true;
  bool bind_threads = false;
  bool use_pool = false;  ///< route loops through the shared pool manager
  /// Arbitration policy name, parsed by the pool layer (pool/policy.h);
  /// kept as an opaque string here so rt/ headers stay independent of
  /// pool/ (the pool depends on rt, not the other way around).
  std::string pool_policy = "equal-share";

  /// Read the AID_* variables; unparsable values fall back to defaults
  /// (libgomp-style forgiveness) with a warning on stderr.
  static RuntimeConfig from_env();

  [[nodiscard]] std::string describe() const;
};

}  // namespace aid::rt
