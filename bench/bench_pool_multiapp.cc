// Real-thread multi-application bench on the shared worker pool
// (src/pool/): the Sec. 4.3 / Sec. 5C scenario executed with actual
// threads.
//
// Two co-running "applications" (threads of this process) execute a fixed
// batch of data-parallel loops each, either on
//   private-teams — one full-size rt::Team per app (the oversubscribing
//                   baseline: 2x the machine's threads), or
//   shared-pool   — one PoolManager, each app leasing a partition under a
//                   given arbitration policy; halfway through the batch
//                   the apps' weights are swapped conceptually by flipping
//                   the policy, exercising dynamic repartitioning under
//                   load.
//
// Reported per config: completion wall time of the co-run (median/p95
// over AID_BENCH_RUNS) and the spawned worker-thread footprint (the two
// app threads themselves exist identically in both setups). The
// acceptance claim: the shared pool finishes the same work with <= half
// the worker threads of the private-team baseline — structurally, the
// pool spawns at most ncores-1 workers ever (the globally fastest core is
// always some partition's tid 0, i.e. a master, and masters need no
// worker), versus 2*(ncores-1) for two private teams — and repartitions
// without losing iterations.
//
// Emits BENCH_pool_multiapp.json (see bench_util.h).
#include <atomic>
#include <cstdio>
#include <thread>

#include "bench_util.h"
#include "common/spin_work.h"
#include "common/time_source.h"
#include "platform/platform.h"
#include "pool/pool_manager.h"
#include "rt/team.h"

namespace {

using namespace aid;

// Per-iteration kernel: a short calibrated spin, heavy enough that the
// loop is compute-bound rather than fork/join-bound, small enough that a
// full co-run stays in milliseconds.
constexpr Nanos kIterSpinNs = 2000;
constexpr i64 kLoopCount = 512;

/// One app's batch: `loops` back-to-back parallel loops; verifies no
/// iteration is lost or duplicated (the repartitioning safety claim).
template <typename RunLoop>
void app_batch(int loops, RunLoop&& run) {
  std::atomic<i64> executed{0};
  const rt::RangeBody body = [&](i64 b, i64 e, const rt::WorkerInfo&) {
    for (i64 i = b; i < e; ++i) spin_for_nanos(kIterSpinNs);
    executed.fetch_add(e - b, std::memory_order_relaxed);
  };
  for (int l = 0; l < loops; ++l) run(body);
  AID_CHECK_MSG(executed.load() == loops * kLoopCount,
                "bench lost or duplicated iterations");
}

struct CoRunResult {
  double wall_ns = 0.0;
  int worker_threads = 0;
};

CoRunResult co_run_private_teams(const platform::Platform& platform,
                                 int loops) {
  const SteadyTimeSource clock;
  // Each app builds its own full-machine team: 2 * (ncores - 1) spawned
  // workers + 2 app threads on one machine — the oversubscribing baseline.
  rt::Team team_a(platform, 0, platform::Mapping::kBigFirst,
                  /*emulate_amp=*/false);
  rt::Team team_b(platform, 0, platform::Mapping::kBigFirst,
                  /*emulate_amp=*/false);
  const auto spec = sched::ScheduleSpec::dynamic(8);
  const Nanos t0 = clock.now();
  std::thread tb([&] {
    app_batch(loops, [&](const rt::RangeBody& body) {
      team_b.run_loop(kLoopCount, spec, body);
    });
  });
  app_batch(loops, [&](const rt::RangeBody& body) {
    team_a.run_loop(kLoopCount, spec, body);
  });
  tb.join();
  const Nanos t1 = clock.now();
  return {static_cast<double>(t1 - t0), 2 * (platform.num_cores() - 1)};
}

CoRunResult co_run_shared_pool(const platform::Platform& platform, int loops,
                               pool::Policy policy, double weight_b) {
  const SteadyTimeSource clock;
  pool::PoolManager::Config config;
  config.policy = policy;
  config.emulate_amp = false;
  pool::PoolManager mgr(platform, config);
  pool::AppHandle a = mgr.register_app("app-a", 1.0);
  pool::AppHandle b = mgr.register_app("app-b", weight_b);
  const auto spec = sched::ScheduleSpec::dynamic(8);

  const Nanos t0 = clock.now();
  std::thread tb([&] {
    app_batch(loops, [&](const rt::RangeBody& body) {
      b.run_loop(kLoopCount, spec, body);
    });
  });
  int done = 0;
  app_batch(loops, [&](const rt::RangeBody& body) {
    a.run_loop(kLoopCount, spec, body);
    // Halfway through, flip the arbitration policy: grant/revoke lands at
    // the apps' next loop boundaries, under load, with no thread churn.
    if (++done == loops / 2 && policy != pool::Policy::kEqualShare)
      mgr.set_policy(pool::Policy::kEqualShare);
  });
  tb.join();
  const Nanos t1 = clock.now();
  const int workers = mgr.spawned_workers();
  return {static_cast<double>(t1 - t0), workers};
}

void report(bench::BenchJsonWriter& json, const std::string& config,
            std::vector<double> wall_samples, int workers) {
  const bench::SampleSummary s = bench::summarize(std::move(wall_samples));
  std::printf(
      "  %-42s median %8.2f ms   p95 %8.2f ms   p99 %8.2f ms   workers %2d\n",
      config.c_str(), s.median / 1e6, s.p95 / 1e6, s.p99 / 1e6, workers);
  json.add(config, "co_run_wall_ns", s);
  const double w = static_cast<double>(workers);
  json.add(config, "worker_threads", {w, w, w, 1});
}

}  // namespace

int main() {
  const auto platform = platform::generic_amp(4, 4, 3.0);
  bench::print_header("Shared-pool multi-application co-run (real threads)",
                      platform);
  const int runs = static_cast<int>(env::get_int("AID_BENCH_RUNS", 5));
  const int loops =
      static_cast<int>(env::get_int("AID_BENCH_POOL_LOOPS", 24));
  bench::BenchJsonWriter json("pool_multiapp");

  struct SharedConfig {
    const char* label;
    pool::Policy policy;
    double weight_b;
  };
  const SharedConfig shared_configs[] = {
      {"shared-pool/equal-share", pool::Policy::kEqualShare, 1.0},
      {"shared-pool/big-priority+flip", pool::Policy::kBigCorePriority, 4.0},
      {"shared-pool/proportional+flip", pool::Policy::kProportional, 3.0},
  };

  std::printf("two apps x %d loops x %lld iterations (%d runs/config)\n\n",
              loops, static_cast<long long>(kLoopCount), runs);

  std::vector<double> private_wall;
  int private_workers = 0;
  for (int r = 0; r < runs; ++r) {
    const CoRunResult res = co_run_private_teams(platform, loops);
    private_wall.push_back(res.wall_ns);
    private_workers = res.worker_threads;
  }
  report(json, "private-teams", private_wall, private_workers);

  for (const auto& cfg : shared_configs) {
    std::vector<double> wall;
    int workers = 0;
    for (int r = 0; r < runs; ++r) {
      const CoRunResult res =
          co_run_shared_pool(platform, loops, cfg.policy, cfg.weight_b);
      wall.push_back(res.wall_ns);
      workers = std::max(workers, res.worker_threads);
    }
    report(json, cfg.label, wall, workers);
    AID_CHECK_MSG(workers <= private_workers / 2,
                  "shared pool exceeded half the private-team worker count");
  }

  std::printf(
      "\nexpectation: every shared-pool config completes the same work with "
      "<= half the worker threads of private-teams (no oversubscription), "
      "and the mid-run policy flip repartitions without losing "
      "iterations.\n");
  return 0;
}
