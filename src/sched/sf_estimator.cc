#include "sched/sf_estimator.h"

#include "common/check.h"

namespace aid::sched {
namespace {

double rate_of(i64 time, i64 iters) {
  if (time <= 0 || iters <= 0) return 0.0;
  return static_cast<double>(iters) / static_cast<double>(time);
}

}  // namespace

SfEstimator::SfEstimator(int num_core_types) : ntypes_(num_core_types) {
  AID_CHECK(num_core_types >= 1 && num_core_types <= kMaxCoreTypes);
}

void SfEstimator::reset(int expected_threads) {
  AID_CHECK(expected_threads >= 1);
  for (auto& s : line_.sums) {
    s.time.store(0, std::memory_order_relaxed);
    s.iters.store(0, std::memory_order_relaxed);
  }
  base_ = {};
  line_.expected = expected_threads;
  line_.completed.store(0, std::memory_order_release);
}

bool SfEstimator::record(int core_type, Nanos elapsed, i64 iterations) {
  AID_DCHECK(core_type >= 0 && core_type < num_core_types());
  if (iterations > 0) {
    Sums& s = line_.sums[static_cast<usize>(core_type)];
    // Clamp to >=1ns so a timer with coarse granularity cannot produce a
    // zero-time sample (infinite rate).
    s.time.fetch_add(elapsed > 0 ? elapsed : 1, std::memory_order_relaxed);
    s.iters.fetch_add(iterations, std::memory_order_relaxed);
  }
  const i64 done =
      line_.completed.fetch_add(1, std::memory_order_acq_rel) + 1;
  return done % line_.expected == 0;
}

void SfEstimator::next_window(std::span<double> rates) {
  AID_CHECK(rates.size() == static_cast<usize>(ntypes_));
  for (usize t = 0; t < rates.size(); ++t) {
    const Sums& s = line_.sums[t];
    const Base now{s.time.load(std::memory_order_relaxed),
                   s.iters.load(std::memory_order_relaxed)};
    rates[t] = rate_of(now.time - base_[t].time, now.iters - base_[t].iters);
    base_[t] = now;
  }
}

double SfEstimator::rate(int core_type) const {
  AID_DCHECK(core_type >= 0 && core_type < num_core_types());
  const Sums& s = line_.sums[static_cast<usize>(core_type)];
  const Base& b = base_[static_cast<usize>(core_type)];
  return rate_of(s.time.load(std::memory_order_relaxed) - b.time,
                 s.iters.load(std::memory_order_relaxed) - b.iters);
}

void SfEstimator::speedup_factors(std::span<const double> fallback_speed,
                                  std::span<double> out) const {
  const usize n = static_cast<usize>(ntypes_);
  AID_CHECK(fallback_speed.size() == n);
  AID_CHECK(out.size() == n);
  std::array<double, kMaxCoreTypes> rates{};
  for (usize t = 0; t < n; ++t) rates[t] = rate(static_cast<int>(t));

  // Reference = slowest populated type: the first (types are ordered
  // slowest-first by construction of the platform) with a valid rate.
  double ref = 0.0;
  for (usize t = 0; t < n; ++t) {
    if (rates[t] > 0.0) {
      ref = rates[t];
      break;
    }
  }

  // Element t of `out` is written only after element t of the fallback
  // was read: safe when the two alias.
  for (usize t = 0; t < n; ++t) {
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
