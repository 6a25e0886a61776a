#include "sched/sf_estimator.h"

#include <array>

#include "common/check.h"

namespace aid::sched {

SfEstimator::SfEstimator(int num_core_types)
    : types_(static_cast<usize>(num_core_types)) {
  AID_CHECK(num_core_types >= 1 && num_core_types <= kMaxCoreTypes);
}

void SfEstimator::reset(int expected_threads) {
  AID_CHECK(expected_threads >= 1);
  for (auto& t : types_) {
    t.time_sum.store(0, std::memory_order_relaxed);
    t.iter_sum.store(0, std::memory_order_relaxed);
  }
  expected_.store(expected_threads, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_release);
}

bool SfEstimator::record(int core_type, Nanos elapsed, i64 iterations) {
  AID_DCHECK(core_type >= 0 && core_type < num_core_types());
  if (iterations > 0) {
    auto& acc = types_[static_cast<usize>(core_type)];
    // Clamp to >=1ns so a timer with coarse granularity cannot produce a
    // zero-time sample (infinite rate).
    acc.time_sum.fetch_add(elapsed > 0 ? elapsed : 1,
                           std::memory_order_relaxed);
    acc.iter_sum.fetch_add(iterations, std::memory_order_relaxed);
  }
  const int done = completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const int expected = expected_.load(std::memory_order_relaxed);
  AID_DCHECK(done <= expected);
  return done == expected;
}

bool SfEstimator::complete() const {
  return completed_.load(std::memory_order_acquire) >=
         expected_.load(std::memory_order_relaxed);
}

double SfEstimator::rate(int core_type) const {
  AID_DCHECK(core_type >= 0 && core_type < num_core_types());
  const auto& acc = types_[static_cast<usize>(core_type)];
  const i64 time = acc.time_sum.load(std::memory_order_relaxed);
  const i64 iters = acc.iter_sum.load(std::memory_order_relaxed);
  if (time <= 0 || iters <= 0) return 0.0;
  return static_cast<double>(iters) / static_cast<double>(time);
}

void SfEstimator::speedup_factors(const std::vector<double>& fallback_speed,
                                  std::vector<double>& out) const {
  AID_CHECK(fallback_speed.size() == types_.size());
  AID_CHECK(out.size() == types_.size());
  std::array<double, kMaxCoreTypes> rates{};
  for (usize t = 0; t < types_.size(); ++t)
    rates[t] = rate(static_cast<int>(t));

  // Reference = slowest populated type: the first (types are ordered
  // slowest-first by construction of the platform) with a valid rate.
  double ref = 0.0;
  for (usize t = 0; t < types_.size(); ++t) {
    if (rates[t] > 0.0) {
      ref = rates[t];
      break;
    }
  }

  // Element t of `out` is written only after element t of the fallback
  // was read: safe when the two alias.
  for (usize t = 0; t < types_.size(); ++t) {
    double sf = fallback_speed[t];
    // No sample for this type (no threads bound there, or it never got an
    // iteration): trust the platform's nominal speed ratio.
    if (rates[t] > 0.0 && ref > 0.0) sf = rates[t] / ref;
    out[t] = sf < kMinSf ? kMinSf : sf;
  }
}

double aid_k(double num_iterations, const std::vector<int>& threads_per_type,
             const std::vector<double>& sf_per_type) {
  AID_CHECK(threads_per_type.size() == sf_per_type.size());
  double denom = 0.0;
  for (usize t = 0; t < threads_per_type.size(); ++t)
    denom += static_cast<double>(threads_per_type[t]) * sf_per_type[t];
  return denom > 0.0 ? num_iterations / denom : 0.0;
}

}  // namespace aid::sched
