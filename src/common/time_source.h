// Time abstraction that lets the identical scheduler code run against the
// real clock (threaded runtime) or a per-worker virtual clock (simulator).
//
// The paper's SF-sampling needs exactly two timestamps per thread per loop
// (libgomp uses the Linux vsyscall clock), so a virtual call here is far off
// the critical path.
#pragma once

#include <chrono>

#include "common/types.h"

namespace aid {

/// Source of the current time in nanoseconds. Implementations: the real
/// steady clock, a manually-advanced clock (tests) and the simulator's
/// per-worker virtual clock.
class TimeSource {
 public:
  virtual ~TimeSource() = default;
  [[nodiscard]] virtual Nanos now() const = 0;
};

/// Wall-clock time source backed by std::chrono::steady_clock.
class SteadyTimeSource final : public TimeSource {
 public:
  [[nodiscard]] Nanos now() const override {
    const auto tp = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(tp).count();
  }
};

/// Manually advanced clock for deterministic unit tests.
class ManualTimeSource final : public TimeSource {
 public:
  [[nodiscard]] Nanos now() const override { return t_; }
  void set(Nanos t) { t_ = t; }
  void advance(Nanos dt) { t_ += dt; }

 private:
  Nanos t_ = 0;
};

}  // namespace aid
