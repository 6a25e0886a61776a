// Best-effort thread-to-core pinning for the dispatch engine's masters and
// workers (rt/worker_pool.cc).
//
// On the development host the platform's core ids may exceed the real CPU
// count; failures are silently ignored (the Throttle provides the
// asymmetry in that case, see rt/throttle.h).
#pragma once

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace aid {

inline void try_bind_to_core(int core_id) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(core_id), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
#else
  (void)core_id;
#endif
}

}  // namespace aid
