// Online speedup-factor estimation shared by all AID schedulers.
//
// Paper Sec. 4.2, footnote 2: "we maintain two shared counters to keep track
// of the summation of execution times for sampling-phases in big-core and
// small-core threads ... as soon as a thread completes the sampling phase it
// increments the associated counter atomically".
//
// We generalize both axes the paper sketches:
//  * N core types (the Sec. 4.2 extension): one accumulator pair per type;
//    SF_j is measured relative to the slowest *populated* type.
//  * Unequal per-thread sample sizes (needed by AID-dynamic, whose blocks
//    differ by core type): we accumulate (time, iterations) pairs and
//    compare per-type progress *rates* (iters/time). For the initial
//    sampling phase, where every thread runs exactly `chunk` iterations,
//    the rate ratio reduces exactly to the paper's average-time ratio.
//
// AID-dynamic records a thread's blocks throughout the loop and recomputes
// its R every N records, so the estimator is laid out for that:
//  * One record line. The completion count and the per-type (time,
//    iterations) sums share one cache-line-aligned block (one line for up
//    to 3 core types), so a record() moves one line, not one per type plus
//    one for the count.
//  * Monotone sums. Within a construct the count and the sums only grow.
//    next_window() copies them into private bases and reports the rates of
//    the growth since the previous copy; record() signals its caller when
//    the count reaches a multiple of `expected`. reset() zeroes everything,
//    once per construct. The growth is the records since the previous
//    window, give or take records still in flight: a record adds its time,
//    its iterations and its count in three RMWs, and a window may split
//    them. Each sum is loaded once per window, so no record is lost
//    between windows.
// Owner-written per-thread slots, summed by the closer, measured slower
// than this shared line on sym-loops (src/sched/README.md).
#pragma once

#include <array>
#include <atomic>
#include <span>
#include <vector>

#include "common/types.h"

namespace aid::sched {

inline constexpr int kMaxCoreTypes = 8;

/// Lock-free per-core-type (time, iteration) accumulator plus a completion
/// counter, armed once per construct and read window by window.
class SfEstimator {
 public:
  explicit SfEstimator(int num_core_types);

  /// Re-arm for a new construct expecting `expected_threads` contributions
  /// per window. Must not race with record() — callers guarantee it.
  void reset(int expected_threads);

  /// Record one thread's completed sample. `iterations` may be zero (thread
  /// found the pool empty); such samples count toward completion but do not
  /// pollute the rate estimate. Returns true iff the completion count
  /// reached a multiple of `expected_threads` — the caller then owns
  /// finalization (the paper's "last thread computes SF and k").
  bool record(int core_type, Nanos elapsed, i64 iterations);

  /// Writes rate() of every type into `rates` (num_core_types() entries)
  /// and starts the next window. Callers serialize the calls, and each
  /// call orders its bases before the next one's reads.
  void next_window(std::span<double> rates);

  /// Progress rate (iterations per nanosecond) of a core type since the
  /// last next_window(), or since reset(); 0 when the type has no valid
  /// samples.
  [[nodiscard]] double rate(int core_type) const;

  /// SF_j: rate(j) / rate(slowest populated type with valid samples).
  /// Falls back to `fallback_speed[j]` (nominal platform speeds) for types
  /// without valid samples. Result is clamped to >= kMinSf. Writes into
  /// `out`, which must hold num_core_types() entries (no allocation: the
  /// finalizing thread calls this) and may alias `fallback_speed`.
  void speedup_factors(std::span<const double> fallback_speed,
                       std::span<double> out) const;
  /// The same, into a fresh vector.
  [[nodiscard]] std::vector<double> speedup_factors(
      std::span<const double> fallback_speed) const {
    std::vector<double> sf(static_cast<usize>(ntypes_));
    speedup_factors(fallback_speed, sf);
    return sf;
  }

  [[nodiscard]] int num_core_types() const { return ntypes_; }

  /// Lower clamp for estimated SF values; guards against degenerate samples
  /// (e.g. timer granularity) producing SF < a small positive value.
  static constexpr double kMinSf = 1e-3;

 private:
  struct Sums {
    std::atomic<i64> time{0};
    std::atomic<i64> iters{0};
  };
  struct Base {
    i64 time = 0;
    i64 iters = 0;
  };

  /// RMWed by every record(). `expected` sits on the same line, so the
  /// comparison after the count's RMW costs no second miss; only reset()
  /// writes it.
  struct alignas(kCacheLineBytes) RecordLine {
    std::atomic<i64> completed{0};
    i64 expected = 1;  // never 0: record() divides by it
    std::array<Sums, kMaxCoreTypes> sums;
  };
  static_assert(2 * sizeof(i64) + 3 * sizeof(Sums) <= kCacheLineBytes,
                "three core types must fit the record line");

  RecordLine line_;
  /// The sums at the last next_window(): written and read by the caller
  /// of next_window() only.
  std::array<Base, kMaxCoreTypes> base_{};
  int ntypes_;
};

/// k in the paper's notation: the per-small-core-thread allotment such that
/// sum_t N_t * SF_t * k == NI (Sec. 4.2: k = NI / (NB*SF + NS), generalized
/// to k = NI / sum_t N_t*SF_t). Returns 0 when the denominator is 0.
[[nodiscard]] double aid_k(double num_iterations,
                           const std::vector<int>& threads_per_type,
                           const std::vector<double>& sf_per_type);

}  // namespace aid::sched
