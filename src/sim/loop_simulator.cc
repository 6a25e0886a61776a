#include "sim/loop_simulator.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace aid::sim {
namespace {

// Deterministic lognormal execution-noise factor hashed from (clock, tid):
// replays exactly, varies across chunks and invocations. Longer ranges
// average interference out: sigma decays with sqrt of the duration.
double exec_noise(Nanos now_ns, int tid, double sigma_ref, Nanos duration,
                  Nanos ref_duration) {
  if (sigma_ref <= 0.0) return 1.0;
  const double sigma =
      sigma_ref / std::sqrt(1.0 + static_cast<double>(duration) /
                                      static_cast<double>(
                                          ref_duration > 0 ? ref_duration
                                                           : 1));
  u64 state = static_cast<u64>(now_ns) * 0xd6e8feb86659fd93ULL +
              static_cast<u64>(tid) * 0xa0761d6478bd642fULL + 0x9e37;
  const double u1 =
      (static_cast<double>(splitmix64(state) >> 11) + 0.5) * 0x1.0p-53;
  const double u2 =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(6.283185307179586 * u2);
  // Mean-preserving lognormal: E[exp(sigma Z - sigma^2/2)] = 1.
  return std::exp(sigma * z - 0.5 * sigma * sigma);
}

// Deterministic wake-up delay in [0, bound) hashed from (loop start, tid):
// the arrival order differs between invocations but replays exactly. The
// master (tid 0) is exempt — it is already running when it opens the
// work-share, so it reliably grabs the first chunk (which is what makes
// guided's huge first chunk dangerous when the master sits on a small
// core, i.e. under the SB mapping).
Nanos wakeup_delay(Nanos start_ns, int tid, Nanos bound) {
  if (bound <= 0 || tid == 0) return 0;
  u64 state = static_cast<u64>(start_ns) * 0x9e3779b97f4a7c15ULL +
              static_cast<u64>(tid) * 0xc2b2ae3d27d4eb4fULL;
  return static_cast<Nanos>(splitmix64(state) % static_cast<u64>(bound));
}

}  // namespace

LoopSimulator::LoopSimulator(const platform::TeamLayout& layout,
                             OverheadModel overhead)
    : layout_(layout), overhead_(overhead) {}

LoopResult LoopSimulator::run(sched::LoopScheduler& sched, i64 count,
                              const CostModel& cost, Nanos start_ns,
                              trace::Trace* trace) {
  const int n = layout_.nthreads();
  const usize un = static_cast<usize>(n);

  std::vector<WorkerClock> clocks(un);
  std::vector<sched::ThreadContext> ctx(un);
  std::vector<bool> done(un, false);
  LoopResult res;
  res.finish_ns.assign(un, 0);
  res.busy_ns.assign(un, 0);
  res.overhead_ns.assign(un, 0);
  res.iterations.assign(un, 0);

  for (int t = 0; t < n; ++t) {
    const Nanos entry = overhead_.fork_join_ns +
                        wakeup_delay(start_ns, t, overhead_.wakeup_jitter_ns);
    clocks[static_cast<usize>(t)].t = start_ns + entry;
    res.overhead_ns[static_cast<usize>(t)] = entry;
    if (trace != nullptr && entry > 0)
      trace->record(t, trace::State::kScheduling, start_ns, start_ns + entry);
    ctx[static_cast<usize>(t)] = {
        .tid = t,
        .core_type = layout_.core_type_of(t),
        .speed = layout_.speed_of(t),
        .time = &clocks[static_cast<usize>(t)],
    };
  }

  // Per-tid last-seen removal counts: the scheduler call below can only
  // add removals to the invoked tid's slot, so polling that one slot
  // (O(1)) detects pool touches without summing every per-thread counter.
  std::vector<i64> removals_seen(static_cast<usize>(n));
  for (int t = 0; t < n; ++t)
    removals_seen[static_cast<usize>(t)] = sched.pool_removals_of(t);
  int remaining_workers = n;

  while (remaining_workers > 0) {
    // Wake the worker with the smallest virtual clock (ties: lowest tid).
    int tid = -1;
    for (int t = 0; t < n; ++t) {
      if (done[static_cast<usize>(t)]) continue;
      if (tid < 0 ||
          clocks[static_cast<usize>(t)].t < clocks[static_cast<usize>(tid)].t)
        tid = t;
    }
    AID_DCHECK(tid >= 0);
    const usize ut = static_cast<usize>(tid);
    WorkerClock& clk = clocks[ut];

    const Nanos call_begin = clk.t;
    sched::IterRange r;
    const bool got = sched.next(ctx[ut], r);
    const i64 removals_now = sched.pool_removals_of(tid);
    const bool touched_pool = removals_now != removals_seen[ut];
    removals_seen[ut] = removals_now;

    const Nanos call_cost = overhead_.call_cost(touched_pool, n);
    clk.t += call_cost;
    res.overhead_ns[ut] += call_cost;
    if (trace != nullptr && call_cost > 0)
      trace->record(tid, trace::State::kScheduling, call_begin,
                    call_begin + call_cost);

    if (!got) {
      done[ut] = true;
      res.finish_ns[ut] = clk.t;
      --remaining_workers;
      continue;
    }

    AID_DCHECK(!r.empty());
    const Nanos exec_begin = clk.t;
    const Nanos base_exec = cost.range_cost(r, ctx[ut].core_type);
    const Nanos pure_exec = static_cast<Nanos>(
        static_cast<double>(base_exec) *
        exec_noise(clk.t, tid, overhead_.exec_noise_sigma, base_exec,
                   overhead_.noise_ref_ns));
    const Nanos exec =
        pure_exec + overhead_.locality_cost(r.size(), pure_exec);
    AID_DCHECK(exec >= 0);
    clk.t += exec;
    res.busy_ns[ut] += exec;
    res.iterations[ut] += r.size();
    if (trace != nullptr)
      trace->record(tid, trace::State::kRunning, exec_begin, exec_begin + exec);
  }

  res.completion_ns =
      *std::max_element(res.finish_ns.begin(), res.finish_ns.end());
  if (trace != nullptr) {
    // Workers that finished early wait at the implicit barrier.
    for (int t = 0; t < n; ++t)
      if (res.finish_ns[static_cast<usize>(t)] < res.completion_ns)
        trace->record(t, trace::State::kSync,
                      res.finish_ns[static_cast<usize>(t)],
                      res.completion_ns);
  }

  const auto st = sched.stats();
  res.pool_removals = st.pool_removals;
  res.estimated_sf = st.estimated_sf;
  res.aid_phases = st.aid_phases;

  i64 executed = res.total_iterations();
  AID_CHECK_MSG(executed == count,
                "simulator lost or duplicated iterations — scheduler bug");
  return res;
}

}  // namespace aid::sim
