// Microbenchmark for the Sec. 4.1 claim: routing every loop through the
// runtime (the paper's compiler change from compiled-in static to
// runtime-dispatched scheduling) adds no noticeable overhead when the
// selected schedule is static.
//
// Times one 4096-iteration loop on a 2-thread real team (no emulated AMP)
// per sample, four series interleaved round-robin on the same team so host
// drift hits each alike:
//   compiled-in — the loop body partitioned by hand (what GCC emits for a
//                 schedule-less loop with the vanilla compiler);
//   static      — the same loop through Team::run_loop with static;
//   dynamic,1   — through the shared pool, chunk 1 (the upper bound);
//   aid-static  — AID-static with sampling.
//
// Prints each series' median and p95 per loop and its median over
// compiled-in's, and emits BENCH_micro_runtime_overhead.json (see
// bench_util.h). Tunable: AID_BENCH_RUNS (samples per series, default 300).
#include <cstdio>
#include <functional>
#include <iterator>

#include "bench_util.h"
#include "common/spin_work.h"
#include "common/time_source.h"
#include "platform/platform.h"
#include "rt/team.h"
#include "sched/static_sched.h"

namespace {

using namespace aid;

constexpr i64 kIters = 4096;
constexpr u64 kWorkUnits = 40;
constexpr int kThreads = 2;

void spin_range(i64 b, i64 e) {
  for (i64 i = b; i < e; ++i) spin_work(kWorkUnits);
}

}  // namespace

int main() {
  const int runs = static_cast<int>(env::get_int("AID_BENCH_RUNS", 300));
  rt::Team team(platform::generic_amp(1, 1, 2.0), kThreads,
                platform::Mapping::kBigFirst, /*emulate_amp=*/false);

  const auto runtime_loop = [&team](const sched::ScheduleSpec& spec) {
    team.run_loop(kIters, spec, [](i64 b, i64 e, const rt::WorkerInfo&) {
      spin_range(b, e);
    });
  };
  const struct {
    const char* label;
    std::function<void()> loop;
  } series[] = {
      // Hand-partitioned: each thread computes its own even block, with
      // no scheduler interaction beyond the one-iteration-per-thread
      // dispatch.
      {"compiled-in",
       [&team] {
         team.run_loop(kThreads, sched::ScheduleSpec::static_even(),
                       [](i64 b, i64, const rt::WorkerInfo&) {
                         const auto block = sched::StaticScheduler::even_block(
                             kIters, kThreads, static_cast<int>(b));
                         spin_range(block.begin, block.end);
                       });
       }},
      {"static", [&] { runtime_loop(sched::ScheduleSpec::static_even()); }},
      {"dynamic,1", [&] { runtime_loop(sched::ScheduleSpec::dynamic(1)); }},
      {"aid-static", [&] { runtime_loop(sched::ScheduleSpec::aid_static(1)); }},
  };
  constexpr usize kSeries = std::size(series);

  const SteadyTimeSource clock;
  std::vector<double> samples[kSeries];
  const int warmup = runs / 10 + 5;
  for (int r = -warmup; r < runs; ++r) {
    for (usize s = 0; s < kSeries; ++s) {
      const Nanos t0 = clock.now();
      series[s].loop();
      const Nanos t1 = clock.now();
      if (r >= 0) samples[s].push_back(static_cast<double>(t1 - t0));
    }
  }

  bench::BenchJsonWriter json("micro_runtime_overhead");
  std::printf(
      "runtime-dispatch overhead, %d threads, %lld iterations (%d runs per "
      "series)\n\n",
      kThreads, static_cast<long long>(kIters), runs);
  const double base = bench::summarize(samples[0]).median;
  for (usize s = 0; s < kSeries; ++s) {
    const bench::SampleSummary sum = bench::summarize(samples[s]);
    std::printf("  %-12s median %9.1f us   p95 %9.1f us   vs compiled-in %.3fx\n",
                series[s].label, sum.median / 1e3, sum.p95 / 1e3,
                base > 0.0 ? sum.median / base : 0.0);
    json.add(std::string("threads=2/count=4096/sched=") + series[s].label,
             "loop_ns", sum);
  }
  return 0;
}
