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
//  * Unequal per-thread sample sizes (needed by AID-dynamic, whose phase
//    allotments are delta-adjusted): we accumulate (time, iterations) pairs
//    and compare per-type progress *rates* (iters/time). For the initial
//    sampling phase, where every thread runs exactly `chunk` iterations,
//    the rate ratio reduces exactly to the paper's average-time ratio.
#pragma once

#include <atomic>
#include <vector>

#include "common/types.h"

namespace aid::sched {

inline constexpr int kMaxCoreTypes = 8;

/// Lock-free per-core-type (time, iteration) accumulator plus a completion
/// counter. One instance per sampling phase (reset between AID-dynamic
/// phases by the single thread that closes the phase).
class SfEstimator {
 public:
  explicit SfEstimator(int num_core_types);

  /// Re-arm for a new phase expecting `expected_threads` contributions.
  /// Must not race with record() — callers guarantee phase separation.
  void reset(int expected_threads);

  /// Record one thread's completed sample. `iterations` may be zero (thread
  /// found the pool empty); such samples count toward completion but do not
  /// pollute the rate estimate. Returns true iff this call was the last
  /// expected contribution — the caller then owns finalization (the paper's
  /// "last thread computes SF and k").
  bool record(int core_type, Nanos elapsed, i64 iterations);

  /// True once all expected threads recorded (acquire-loads the counter).
  [[nodiscard]] bool complete() const;

  /// Progress rate (iterations per nanosecond) of a core type; 0 when the
  /// type has no valid samples. Only meaningful after complete().
  [[nodiscard]] double rate(int core_type) const;

  /// SF_j: rate(j) / rate(slowest populated type with valid samples).
  /// Falls back to `fallback_speed[j]` (nominal platform speeds) for types
  /// without valid samples. Result is clamped to >= kMinSf. Writes into
  /// `out`, which must already hold num_core_types() entries (no
  /// allocation: the phase-closing thread calls this) and may alias
  /// `fallback_speed`.
  void speedup_factors(const std::vector<double>& fallback_speed,
                       std::vector<double>& out) const;
  /// The same, into a fresh vector.
  [[nodiscard]] std::vector<double> speedup_factors(
      const std::vector<double>& fallback_speed) const {
    std::vector<double> sf(types_.size());
    speedup_factors(fallback_speed, sf);
    return sf;
  }

  [[nodiscard]] int num_core_types() const {
    return static_cast<int>(types_.size());
  }

  /// Lower clamp for estimated SF values; guards against degenerate samples
  /// (e.g. timer granularity) producing SF < a small positive value.
  static constexpr double kMinSf = 1e-3;

 private:
  struct alignas(kCacheLineBytes) TypeAccum {
    std::atomic<i64> time_sum{0};
    std::atomic<i64> iter_sum{0};
  };

  std::vector<TypeAccum> types_;
  /// RMWed by every thread once per phase: alone on its line (with the
  /// expected_ it is compared against), so the words an enclosing
  /// scheduler reads on every next() never share it.
  alignas(kCacheLineBytes) std::atomic<int> completed_{0};
  /// Atomic (relaxed): a phase-closing reset() may overlap the tail of a
  /// straggler's record() — after its completed_ increment, before its
  /// expected_ comparison. The value written is the same team size, so
  /// the comparison is unaffected; atomicity only removes the formal
  /// data race (caught by the CI tsan leg).
  std::atomic<int> expected_{0};
};

/// k in the paper's notation: the per-small-core-thread allotment such that
/// sum_t N_t * SF_t * k == NI (Sec. 4.2: k = NI / (NB*SF + NS), generalized
/// to k = NI / sum_t N_t*SF_t). Returns 0 when the denominator is 0.
[[nodiscard]] double aid_k(double num_iterations,
                           const std::vector<int>& threads_per_type,
                           const std::vector<double>& sf_per_type);

}  // namespace aid::sched
