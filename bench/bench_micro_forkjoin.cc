// Fork/join fast-path microbenchmark (runtime critical path, no simulation).
//
// The paper's core claim is that AID adds negligible runtime overhead over
// libgomp `dynamic`; that only holds if the *runtime's own* fork/join cost
// is negligible, which is exactly what this bench pins down. For each
// (nthreads, loop-size, schedule) configuration it measures, per
// Team::run_loop call:
//
//   roundtrip_ns      — full dispatch -> barrier -> return latency;
//   dispatch_first_ns — master's run_loop entry to the first body
//                       invocation anywhere in the team;
//   join_last_ns      — last body invocation's end to run_loop's return.
//
// Medians and p95s are printed as a table and emitted as
// BENCH_micro_forkjoin.json (see bench_util.h) so the before/after effect
// of runtime changes stays machine-trackable across PRs.
//
// The `chain=K` config family measures the loop-pipeline subsystem
// (src/pipeline/): for K small dependent-free loops it reports
//
//   sync_total_ns  — K back-to-back Team::run_loop calls (a full implicit
//                    barrier between every construct);
//   chain_total_ns — one Team::run_chain over the same K loops (nowait
//                    flow over the generation-dock ring; one join at the
//                    chain-end flush).
//
// The `shard=` config family measures the work-share pool itself under a
// steal-heavy arming (the big cores' shards hold 1/8 of the space, so
// their threads drain home fast and then steal / bulk-migrate):
//
//   take_ns          — one take/steal round-trip (per-op, all threads);
//   local_share_pct  — removals served by the taker's home shard, in %
//                      (single pool: 0 — every removal hits the one line
//                      all clusters write);
//   rebalances_per_run — contiguous blocks bulk-migrated per drain.
//
// shard=single is the classic one-line WorkShare, shard=sharded the
// per-thread ShardedWorkShare the runtime arms, shard=fallback1 the
// unsharded ShardedWorkShare (the single pool one-thread teams and the
// simulator get: it must stay within noise of single). The committed
// 4-CPU capture reads take_ns single 117 / sharded 49 / fallback1 108 at
// threads=2 and 141 / 144 / 138 at threads=4, with sharded's
// local_share_pct at 99.8; its sharded rows armed one shard per core
// type, a layout since deleted.
//
// Tunables: AID_BENCH_FORKJOIN_RUNS (samples/config, default 300),
// AID_BENCH_FORKJOIN_MAXTHREADS (default 16, capped sweep 1,2,4,8,16).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "bench_util.h"
#include "common/time_source.h"
#include "pipeline/loop_chain.h"
#include "platform/platform.h"
#include "rt/gomp_compat.h"
#include "rt/runtime.h"
#include "rt/team.h"
#include "sched/sharded_work_share.h"
#include "sched/work_share.h"

namespace {

using namespace aid;

struct LatencySamples {
  std::vector<double> roundtrip;
  std::vector<double> dispatch_first;
  std::vector<double> join_last;
};

LatencySamples measure(rt::Team& team, i64 count,
                       const sched::ScheduleSpec& spec, int runs) {
  const SteadyTimeSource clock;
  LatencySamples out;
  std::atomic<Nanos> first_ts{0};
  std::atomic<Nanos> last_ts{0};

  const rt::RangeBody body = [&](i64, i64, const rt::WorkerInfo&) {
    Nanos expected = 0;
    const Nanos now = clock.now();
    first_ts.compare_exchange_strong(expected, now,
                                     std::memory_order_relaxed);
    // Max-update: concurrent finishers must not let an earlier timestamp
    // overwrite a later one, or join_last_ns absorbs inter-worker skew.
    const Nanos end = clock.now();
    Nanos prev = last_ts.load(std::memory_order_relaxed);
    while (prev < end && !last_ts.compare_exchange_weak(
                             prev, end, std::memory_order_relaxed)) {
    }
  };

  const int warmup = runs / 10 + 5;
  for (int r = -warmup; r < runs; ++r) {
    first_ts.store(0, std::memory_order_relaxed);
    last_ts.store(0, std::memory_order_relaxed);
    const Nanos t0 = clock.now();
    team.run_loop(count, spec, body);
    const Nanos t1 = clock.now();
    if (r < 0) continue;
    out.roundtrip.push_back(static_cast<double>(t1 - t0));
    const Nanos first = first_ts.load(std::memory_order_relaxed);
    const Nanos last = last_ts.load(std::memory_order_relaxed);
    if (count > 0 && first != 0) {
      out.dispatch_first.push_back(static_cast<double>(first - t0));
      out.join_last.push_back(static_cast<double>(t1 - last));
    }
  }
  return out;
}

void report(bench::BenchJsonWriter& json, const std::string& config,
            const char* metric, const std::vector<double>& samples) {
  if (samples.empty()) return;
  const bench::SampleSummary s = bench::summarize(samples);
  std::printf("  %-45s %-18s median %9.0f ns   p95 %9.0f ns\n",
              config.c_str(), metric, s.median, s.p95);
  json.add(config, metric, s);
}

struct ChainSamples {
  std::vector<double> sync_total;
  std::vector<double> chain_total;
};

/// Total wall time of K loops executed synchronously (K run_loop calls,
/// K implicit barriers) versus pipelined (one run_chain, one flush).
ChainSamples measure_chain(rt::Team& team, int chain_len, i64 count,
                           const sched::ScheduleSpec& spec, int runs) {
  const SteadyTimeSource clock;
  ChainSamples out;
  const rt::RangeBody body = [](i64, i64, const rt::WorkerInfo&) {};

  pipeline::LoopChain chain;
  for (int k = 0; k < chain_len; ++k) chain.add(count, spec, body);

  const int warmup = runs / 10 + 5;
  for (int r = -warmup; r < runs; ++r) {
    const Nanos t0 = clock.now();
    for (int k = 0; k < chain_len; ++k) team.run_loop(count, spec, body);
    const Nanos t1 = clock.now();
    team.run_chain(chain);
    const Nanos t2 = clock.now();
    if (r < 0) continue;
    out.sync_total.push_back(static_cast<double>(t1 - t0));
    out.chain_total.push_back(static_cast<double>(t2 - t1));
  }
  return out;
}

// --- cancel= family --------------------------------------------------------
//
// The failure-domain layer's two bench guards (src/rt/README.md "Failure
// model"):
//
//   cancel_latency_chunks — chunks taken after a cancel fired from inside
//       the first chunk's body. Cooperative cancellation is observed at
//       the chunk-take boundary, so the overshoot is bounded by roughly
//       one in-flight chunk per team member — this metric pins that bound
//       (deliberately not a *_ns family: it gates on chunk counts).
//   roundtrip_ns (cancel=unarmed / cancel=armed) — the same small static
//       construct without and with a never-firing deadline: the armed
//       variant pays the watchdog's arm/disarm (one mutex hop each) on
//       top of the construct; the unarmed take path must stay within
//       noise of the committed roundtrip baseline (the token probe is one
//       relaxed load).

void report_cancel_family(bench::BenchJsonWriter& json, rt::Team& team,
                          int nthreads, int runs) {
  {
    const sched::ScheduleSpec dyn = sched::ScheduleSpec::dynamic(16);
    std::vector<double> latency;
    const int warmup = runs / 10 + 5;
    for (int r = -warmup; r < runs; ++r) {
      CancelToken token;
      std::atomic<i64> chunks{0};
      const rt::RangeBody body = [&](i64, i64, const rt::WorkerInfo&) {
        if (chunks.fetch_add(1, std::memory_order_relaxed) == 0)
          token.cancel();
      };
      team.run_loop(i64{1} << 14, dyn.with_cancel(&token), body);
      if (r < 0) continue;
      latency.push_back(
          static_cast<double>(chunks.load(std::memory_order_relaxed) - 1));
    }
    char config[96];
    std::snprintf(config, sizeof config,
                  "threads=%d/cancel=latency/sched=dynamic16", nthreads);
    report(json, config, "cancel_latency_chunks", latency);
  }
  for (const bool armed : {false, true}) {
    sched::ScheduleSpec spec = sched::ScheduleSpec::static_even();
    if (armed) spec.deadline_ns = i64{3600} * 1'000'000'000;  // never fires
    char config[96];
    std::snprintf(config, sizeof config,
                  "threads=%d/cancel=%s/count=256/sched=static", nthreads,
                  armed ? "armed" : "unarmed");
    const LatencySamples s = measure(team, 256, spec, runs);
    report(json, config, "roundtrip_ns", s.roundtrip);
  }
}

// --- gomp_chain= family ----------------------------------------------------
//
// The same K-loop sync-vs-pipelined comparison as `chain=K`, but through
// the GOMP compat surface (rt/gomp_compat.h): K consecutive work shares
// inside one aid_gomp_parallel region, ended with aid_gomp_loop_end
// (sync_total_ns — a construct barrier after every loop) or
// aid_gomp_loop_end_nowait (chain_total_ns — nowait flow over the
// work-share generation ring; the region end is the flush). This is the
// unmodified-OpenMP-code path: the acceptance target is chain_total_ns
// within ~1.3x of the native `chain=K` family at the same thread count.
// Runs on the *global* runtime (the gomp surface has no per-Team form),
// whose shape main() pins via the environment before first use.

struct GompChainCtx {
  int chain_len = 0;
  long count = 0;
  bool nowait = false;
};

void gomp_chain_bench_body(void* data) {
  auto* ctx = static_cast<GompChainCtx*>(data);
  for (int k = 0; k < ctx->chain_len; ++k) {
    long start = 0;
    long end = 0;
    if (aid::rt::gomp::aid_gomp_loop_runtime_start(0, ctx->count, 1, &start,
                                                   &end)) {
      do {
      } while (aid::rt::gomp::aid_gomp_loop_runtime_next(&start, &end));
    }
    if (ctx->nowait)
      aid::rt::gomp::aid_gomp_loop_end_nowait();
    else
      aid::rt::gomp::aid_gomp_loop_end();
  }
}

ChainSamples measure_gomp_chain(int chain_len, i64 count, int runs) {
  const SteadyTimeSource clock;
  ChainSamples out;
  GompChainCtx sync{chain_len, static_cast<long>(count), /*nowait=*/false};
  GompChainCtx chained{chain_len, static_cast<long>(count), /*nowait=*/true};

  const int warmup = runs / 10 + 5;
  for (int r = -warmup; r < runs; ++r) {
    const Nanos t0 = clock.now();
    aid::rt::gomp::aid_gomp_parallel(gomp_chain_bench_body, &sync);
    const Nanos t1 = clock.now();
    aid::rt::gomp::aid_gomp_parallel(gomp_chain_bench_body, &chained);
    const Nanos t2 = clock.now();
    if (r < 0) continue;
    out.sync_total.push_back(static_cast<double>(t1 - t0));
    out.chain_total.push_back(static_cast<double>(t2 - t1));
  }
  return out;
}

void report_gomp_chain_family(bench::BenchJsonWriter& json, int runs) {
  constexpr int kChainLen = 8;
  const int nthreads = rt::Runtime::instance().nthreads();
  for (const i64 count : {i64{256}, i64{1} << 12}) {
    char config[96];
    std::snprintf(config, sizeof config,
                  "threads=%d/gomp_chain=%d/count=%lld/sched=runtime",
                  nthreads, kChainLen, static_cast<long long>(count));
    const ChainSamples s = measure_gomp_chain(kChainLen, count, runs);
    report(json, config, "sync_total_ns", s.sync_total);
    report(json, config, "chain_total_ns", s.chain_total);
  }
}

// --- shard= family ---------------------------------------------------------

struct ShardSamples {
  std::vector<double> take_ns;         // per-op, all threads and runs
  std::vector<double> local_pct;       // per-run home-shard removal share
  std::vector<double> rebalances;      // per-run bulk migrations
};

/// Drain `count` iterations with `nthreads` real threads hammering
/// `take(tid)` in chunks, timing every take/steal round-trip. `rearm`
/// resets the pool before each run; `counters` reports that run's
/// {local, remote, rebalances} afterwards.
template <typename TakeFn, typename RearmFn, typename CounterFn>
ShardSamples measure_pool(int nthreads, int runs, TakeFn&& take,
                          RearmFn&& rearm, CounterFn&& counters) {
  const SteadyTimeSource clock;
  ShardSamples out;
  std::vector<std::vector<double>> per_thread(
      static_cast<usize>(nthreads));

  const int warmup = runs / 10 + 2;
  for (int r = -warmup; r < runs; ++r) {
    rearm();
    for (auto& v : per_thread) v.clear();
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    auto worker = [&](int tid) {
      auto& samples = per_thread[static_cast<usize>(tid)];
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (;;) {
        const Nanos t0 = clock.now();
        const sched::IterRange got = take(tid);
        const Nanos t1 = clock.now();
        if (got.empty()) break;
        samples.push_back(static_cast<double>(t1 - t0));
      }
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<usize>(nthreads - 1));
    for (int t = 1; t < nthreads; ++t) threads.emplace_back(worker, t);
    while (ready.load(std::memory_order_acquire) < nthreads - 1)
      std::this_thread::yield();
    go.store(true, std::memory_order_release);
    worker(0);
    for (auto& t : threads) t.join();
    if (r < 0) continue;
    i64 local = 0, remote = 0, rebalances = 0;
    counters(local, remote, rebalances);
    for (const auto& v : per_thread)
      out.take_ns.insert(out.take_ns.end(), v.begin(), v.end());
    out.local_pct.push_back(local + remote > 0
                                ? 100.0 * static_cast<double>(local) /
                                      static_cast<double>(local + remote)
                                : 0.0);
    out.rebalances.push_back(static_cast<double>(rebalances));
  }
  return out;
}

void report_shard_family(bench::BenchJsonWriter& json, int nthreads,
                         i64 count, i64 chunk, int runs) {
  const auto platform = platform::generic_amp(
      nthreads - nthreads / 2 > 0 ? nthreads - nthreads / 2 : 1,
      nthreads / 2 > 0 ? nthreads / 2 : 1, 2.0);
  const platform::TeamLayout layout(platform, nthreads,
                                    platform::Mapping::kBigFirst);
  // Steal-heavy arming: invert the capacity split so the big cores'
  // threads drain home early and must steal or bulk-migrate.
  std::vector<double> skew(static_cast<usize>(nthreads), 7.0);
  for (int tid = 0; tid < nthreads; ++tid)
    if (layout.core_type_of(tid) > 0) skew[static_cast<usize>(tid)] = 1.0;

  const auto label = [&](const char* kind) {
    char config[96];
    std::snprintf(config, sizeof config,
                  "threads=%d/iters=%lld/shard=%s", nthreads,
                  static_cast<long long>(count), kind);
    return std::string(config);
  };
  const auto emit = [&](const std::string& config, const ShardSamples& s) {
    report(json, config, "take_ns", s.take_ns);
    report(json, config, "local_share_pct", s.local_pct);
    report(json, config, "rebalances_per_run", s.rebalances);
  };

  {
    // The committed single-pool baseline: one WorkShare line shared by
    // every thread of every cluster.
    sched::WorkShare pool(nthreads);
    emit(label("single"),
         measure_pool(
             nthreads, runs,
             [&](int tid) { return pool.take(chunk, tid); },
             [&] { pool.reset(count); },
             [&](i64& local, i64& remote, i64&) {
               local = 0;
               remote = pool.removals();
             }));
  }
  {
    sched::ShardedWorkShare pool(layout, /*sharded=*/true);
    emit(label("sharded"),
         measure_pool(
             nthreads, runs,
             [&](int tid) { return pool.take(chunk, tid); },
             [&] { pool.reset(count, skew); },
             [&](i64& local, i64& remote, i64& rebalances) {
               local = pool.local_removals();
               remote = pool.remote_removals();
               rebalances = pool.rebalances();
             }));
  }
  {
    // Unsharded: must stay within noise of shard=single.
    sched::ShardedWorkShare pool(layout, /*sharded=*/false);
    emit(label("fallback1"),
         measure_pool(
             nthreads, runs,
             [&](int tid) { return pool.take(chunk, tid); },
             [&] { pool.reset(count); },
             [&](i64& local, i64& remote, i64& rebalances) {
               local = pool.local_removals();
               remote = pool.remote_removals();
               rebalances = pool.rebalances();
             }));
  }
}

}  // namespace

int main() {
  const int runs =
      static_cast<int>(env::get_int("AID_BENCH_FORKJOIN_RUNS", 300));
  const int max_threads =
      static_cast<int>(env::get_int("AID_BENCH_FORKJOIN_MAXTHREADS", 16));

  // The gomp_chain= family drives the global runtime; pin its shape (4
  // threads, no AMP throttling, a deterministic runtime schedule) before
  // anything materializes it. Pre-set environment wins.
  ::setenv("AID_NUM_THREADS", "4", 0);
  ::setenv("AID_EMULATE_AMP", "0", 0);
  ::setenv("AID_SCHEDULE", "dynamic,16", 0);

  bench::BenchJsonWriter json("micro_forkjoin");
  std::printf("fork/join fast-path latency (%d runs per config)\n\n", runs);

  const struct {
    const char* label;
    sched::ScheduleSpec spec;
  } specs[] = {
      {"static", sched::ScheduleSpec::static_even()},
      {"dynamic16", sched::ScheduleSpec::dynamic(16)},
  };

  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  for (int nthreads : {1, 2, 4, 8, 16}) {
    if (nthreads > max_threads) break;
    // The team's families run on a master thread of their own: the team
    // pins that thread, so the pin ends with the team and the shard=
    // threads below start unbound.
    std::jthread([&] {
      // No throttling: pure runtime cost, no emulated AMP. The platform
      // always has at least one core of each type (generic_amp's
      // contract); the team uses the first `nthreads` of them. Its threads
      // are bound to those cores when the host has that many CPUs, as
      // bench/e2e binds its teams: unbound threads of one process were
      // seen sharing one CPU. An oversubscribed team stays unbound, since
      // a worker whose core is not a CPU would keep its master's pin.
      const auto platform = platform::generic_amp(
          nthreads - nthreads / 2 > 0 ? nthreads - nthreads / 2 : 1,
          nthreads / 2 > 0 ? nthreads / 2 : 1, 2.0);
      rt::Team team(platform, nthreads, platform::Mapping::kBigFirst,
                    /*emulate_amp=*/false,
                    /*bind_threads=*/nthreads <= cpus);
      for (const i64 count : {i64{0}, i64{1} << 10, i64{1} << 14}) {
        for (const auto& [label, spec] : specs) {
          if (count == 0 && spec.kind != sched::ScheduleKind::kStatic)
            continue;  // empty loop: scheduler choice is irrelevant
          char config[96];
          std::snprintf(config, sizeof config,
                        "threads=%d/count=%lld/sched=%s", nthreads,
                        static_cast<long long>(count), label);
          const LatencySamples s = measure(team, count, spec, runs);
          report(json, config, "roundtrip_ns", s.roundtrip);
          report(json, config, "dispatch_first_ns", s.dispatch_first);
          report(json, config, "join_last_ns", s.join_last);
        }
      }

      // Chained vs synchronous K-loop round trips (the loop-pipeline
      // payoff: K-1 inter-construct barriers traded for nowait flow over
      // the ring).
      constexpr int kChainLen = 8;
      for (const i64 count : {i64{256}, i64{1} << 12}) {
        for (const auto& [label, spec] : specs) {
          char config[96];
          std::snprintf(config, sizeof config,
                        "threads=%d/chain=%d/count=%lld/sched=%s", nthreads,
                        kChainLen, static_cast<long long>(count), label);
          const ChainSamples s =
              measure_chain(team, kChainLen, count, spec, runs);
          report(json, config, "sync_total_ns", s.sync_total);
          report(json, config, "chain_total_ns", s.chain_total);
        }
      }

      // Failure-domain guards: cooperative cancel overshoot (in chunks)
      // and the watchdog arm/disarm tax on the construct round-trip.
      report_cancel_family(json, team, nthreads, runs);
    });

    // Steal-heavy pool-level take/steal round-trips (single vs sharded vs
    // the one-shard fallback) plus the local-vs-remote removal ratio.
    report_shard_family(json, nthreads, /*count=*/i64{1} << 12, /*chunk=*/4,
                        runs);
  }

  // GOMP work shares through the generation ring, sync vs nowait (after
  // the sweep so the global runtime's team coexists with no bench team).
  report_gomp_chain_family(json, runs);
  return 0;
}
