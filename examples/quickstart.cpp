// Quickstart: the 5-minute tour of libaid.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Environment knobs (the paper's activation story — no code changes):
//   AID_SCHEDULE=aid-static        ./build/examples/quickstart
//   AID_SCHEDULE=aid-dynamic,1,5   ./build/examples/quickstart
//   AID_PLATFORM=xeon-amp          ./build/examples/quickstart
//   AID_AMP_AFFINITY=1             (bind low thread ids to big cores)
#include <cstdio>
#include <numeric>
#include <vector>

#include "common/spin_work.h"
#include "rt/runtime.h"
#include "sched/schedule_spec.h"

int main() {
  using namespace aid;

  // The global runtime materializes on first use, configured from the
  // environment exactly like an OpenMP program meeting libgomp.
  rt::Runtime& runtime = rt::Runtime::instance();
  std::printf("platform: %s", runtime.platform().describe().c_str());
  std::printf("config:   %s\n\n", runtime.config().describe().c_str());

  // --- 1. A parallel loop with the environment-selected schedule. -------
  constexpr i64 kN = 1 << 16;
  std::vector<double> squares(kN);
  rt::parallel_for(0, kN, 1, [&](i64 i, const rt::WorkerInfo&) {
    squares[static_cast<usize>(i)] =
        static_cast<double>(i) * static_cast<double>(i);
  });
  std::printf("sum of squares below %lld: %.0f\n", static_cast<long long>(kN),
              std::accumulate(squares.begin(), squares.end(), 0.0));

  // --- 2. The same loop with an explicit AID schedule. ------------------
  // AID-static samples each core type online, estimates the loop's
  // big-to-small speedup factor (SF) and hands every thread a block
  // proportional to its measured speed (paper Sec. 4.2, Fig. 3).
  std::vector<int> who(kN);
  runtime.parallel_for(0, kN, 1, sched::ScheduleSpec::aid_static(1),
                       [&](i64 i, const rt::WorkerInfo& w) {
                         who[static_cast<usize>(i)] = w.tid;
                       });
  // Sized by the machine: under AID_POOL the partition (and so the tids
  // recorded in `who`) may differ from nthreads() sampled after the loop.
  std::vector<i64> per_thread(
      static_cast<usize>(runtime.platform().num_cores()), 0);
  for (int tid : who) ++per_thread[static_cast<usize>(tid)];

  const auto stats = runtime.last_loop_stats();
  std::printf("\nAID-static distribution (estimated SF %.2f):\n",
              stats.estimated_sf);
  const platform::TeamLayout layout = runtime.layout();
  for (int tid = 0; tid < layout.nthreads(); ++tid) {
    std::printf("  tid %d on core %d (%s): %lld iterations\n", tid,
                layout.core_of(tid),
                layout.core_type_of(tid) ==
                        runtime.platform().num_core_types() - 1
                    ? "big"
                    : "small",
                static_cast<long long>(per_thread[static_cast<usize>(tid)]));
  }

  // --- 3. AID-dynamic: the low-overhead dynamic replacement. ------------
  // Iterations need to dwarf the bookkeeping for the comparison to mean
  // anything (a rule that applies to real dynamic scheduling too).
  constexpr i64 kWorkIters = 1 << 13;
  const auto heavy_body = [&](i64 i, const rt::WorkerInfo&) {
    squares[static_cast<usize>(i)] += static_cast<double>(spin_work(500));
  };
  runtime.parallel_for(0, kWorkIters, 1, sched::ScheduleSpec::dynamic(1),
                       heavy_body);
  const i64 dynamic_removals = runtime.last_loop_stats().pool_removals;
  runtime.parallel_for(0, kWorkIters, 1,
                       sched::ScheduleSpec::aid_dynamic(1, 8), heavy_body);
  const i64 aid_removals = runtime.last_loop_stats().pool_removals;
  std::printf("\nsame loop, %lld iterations: dynamic,1 made %lld pool "
              "removals; AID-dynamic(1,8) made %lld\n",
              static_cast<long long>(kWorkIters),
              static_cast<long long>(dynamic_removals),
              static_cast<long long>(aid_removals));
  std::printf("(AID-dynamic removes M iterations at a time on a small "
              "core and R·M on a big one until\n only M per thread are "
              "left, which go out m at a time, so on long loops the "
              "reduction\n approaches the Major-chunk factor — see "
              "bench_fig08.)\n");
  return 0;
}
