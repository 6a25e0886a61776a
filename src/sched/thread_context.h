// Per-worker view handed to schedulers.
//
// The same scheduler code runs under the threaded runtime (real clock, real
// threads) and the discrete-event simulator (virtual per-worker clock); the
// ThreadContext carries everything a scheduler may consult about the calling
// worker: its team id, the core type it is bound to, and a time source. It
// carries no pool shard: in a sharded pool, shard `tid` is the caller's.
#pragma once

#include "common/cancel.h"
#include "common/time_source.h"
#include "common/types.h"

namespace aid::sched {

struct ThreadContext {
  int tid = 0;          ///< team-local thread id, 0..nthreads-1
  int core_type = 0;    ///< 0 = slowest core type on the platform
  double speed = 1.0;   ///< nominal relative speed of the bound core
  const TimeSource* time = nullptr;  ///< per-worker in the simulator
  /// The construct's cancellation token (the runtimes point it at the
  /// ring slot's embedded token; null in the simulator and in tests that
  /// drive schedulers directly). Schedulers probe it at every chunk-take
  /// boundary and poison their pool on the first sighting.
  const CancelToken* cancel = nullptr;

  [[nodiscard]] Nanos now() const { return time->now(); }
  [[nodiscard]] bool cancelled() const {
    return cancel != nullptr && cancel->cancelled();
  }
};

}  // namespace aid::sched
