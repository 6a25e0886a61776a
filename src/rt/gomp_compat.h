// libgomp-shaped entry points.
//
// The paper integrates AID by modifying libgomp, whose compiled-code
// contract is a small C ABI: GOMP_parallel() forks a team that runs
// `fn(data)` in every thread, and work-shared loops are driven by
// GOMP_loop_runtime_start()/GOMP_loop_runtime_next()/GOMP_loop_end().
// The paper's one-line GCC change (Sec. 4.1) makes schedule-less loops
// emit exactly the *runtime* variants of these calls.
//
// This header reproduces that contract on top of libaid (prefixed aid_gomp_
// to avoid colliding with a real libgomp in the process). Code written
// against it is structured exactly like GCC's OpenMP expansion:
//
//   static void body(void* data) {
//     long start, end;
//     if (aid_gomp_loop_runtime_start(0, N, 1, &start, &end)) {
//       do {
//         for (long i = start; i < end; ++i) work(i, data);
//       } while (aid_gomp_loop_runtime_next(&start, &end));
//     }
//     aid_gomp_loop_end();
//   }
//   ...
//   aid_gomp_parallel(body, &ctx, 0);
//
// The schedule applied by the *_runtime_* calls comes from AID_SCHEDULE —
// i.e. the paper's "applications just need to be recompiled" story.
//
// Threading model: aid_gomp_parallel() runs `fn` on every team member of
// the global runtime (rt/runtime.h). Loop state is kept per team; nested
// parallelism is not supported (matching libaid's Team).
//
// Nowait chaining: consecutive work shares inside a region execute over a
// generation ring of in-flight constructs (the loop-pipeline design,
// src/pipeline/), so after aid_gomp_loop_end_nowait() a thread flows
// straight into the next work share — up to PoolJob::kChainRing (the
// engine's one ring depth) constructs past the team's slowest straggler —
// exactly like a native LoopChain.
// aid_gomp_loop_end() barriers on its construct's completion gate, and
// the region end is the chain-end flush. Per-construct schedulers come
// re-armed from the runtime's per-shape SchedulerCache. Design note:
// src/rt/README.md "GOMP nowait chains".
#pragma once

namespace aid::rt::gomp {

/// Fork the global team and run fn(data) on every member (including the
/// caller as thread 0). Blocks until all members return.
/// `num_threads` is accepted for ABI compatibility; 0 means "team size".
/// Values other than 0/team-size are rejected with a check failure, since
/// libaid teams are fixed at startup (as are libgomp's without nesting).
void aid_gomp_parallel(void (*fn)(void*), void* data,
                       unsigned num_threads = 0);

/// Begin a work-shared loop over [start, end) with the given increment,
/// scheduled per AID_SCHEDULE (the paper's runtime schedule). Returns true
/// and writes the first range when the calling thread received work.
/// Must be called from inside aid_gomp_parallel().
bool aid_gomp_loop_runtime_start(long start, long end, long incr,
                                 long* istart, long* iend);

/// Fetch the calling thread's next range. Returns false when done.
bool aid_gomp_loop_runtime_next(long* istart, long* iend);

/// Leave the work-sharing construct: waits at the implicit barrier.
void aid_gomp_loop_end();

/// Non-waiting variant (OpenMP `nowait`).
void aid_gomp_loop_end_nowait();

/// Team queries, mirroring omp_get_thread_num/omp_get_num_threads.
int aid_gomp_thread_num();
int aid_gomp_num_threads();

/// Explicit barrier (GOMP_barrier).
void aid_gomp_barrier();

}  // namespace aid::rt::gomp
