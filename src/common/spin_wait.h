// Spin-then-block building blocks for the fork/join fast path.
//
// The runtime's dispatch and completion waits (rt/worker_pool.cc) first
// spin with CPU-relax hints — a handful of cache-coherency round-trips is
// orders of magnitude cheaper than a futex sleep/wake when the awaited
// store lands within microseconds — and only then fall back to a blocking
// std::atomic::wait (a futex on Linux). The spin must be *bounded and
// small*: on an oversubscribed host the awaited thread needs the very CPU
// the spinner is burning, so spinning past a few hundred pauses only delays
// the wake-up it is waiting for.
#pragma once

#include <atomic>
#include <thread>

#include "common/types.h"

namespace aid {

/// Polite busy-wait hint (x86 `pause` / arm `yield`): reduces speculative
/// re-execution of the spin loop and yields pipeline resources to the
/// sibling hyperthread.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Bounded exponential backoff: pause() executes a burst of cpu_relax that
/// doubles per round (capped), drawing down a fixed total budget. Once
/// exhausted() the caller should block instead of continuing to spin.
class SpinBackoff {
 public:
  explicit SpinBackoff(i32 total_pauses) : left_(total_pauses) {}

  [[nodiscard]] bool exhausted() const noexcept { return left_ <= 0; }

  void pause() noexcept {
    const i32 burst = burst_ < left_ ? burst_ : left_;
    for (i32 i = 0; i < burst; ++i) cpu_relax();
    left_ -= burst;
    if (burst_ < kMaxBurst) burst_ <<= 1;
  }

 private:
  static constexpr i32 kMaxBurst = 64;
  i32 burst_ = 1;
  i32 left_;
};

/// Spin budget (total cpu_relax count) matched to how the team fits the
/// host: when the team oversubscribes the CPUs, long spins steal cycles
/// from the thread being awaited, so the budget collapses to a token spin
/// that still catches already-satisfied waits without a syscall.
[[nodiscard]] inline i32 default_spin_budget(int nthreads) noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool oversubscribed =
      hw != 0 && static_cast<unsigned>(nthreads) > hw;
  return oversubscribed ? 32 : 256;
}

/// Spin-then-yield wait ladder: poll() until it returns true or both
/// budgets are exhausted (the caller then blocks — futex). Keeps the
/// backoff policy in one place for every runtime wait site.
template <typename Poll>
[[nodiscard]] inline bool spin_then_yield(Poll&& poll, i32 spin_budget,
                                          i32 yield_budget) {
  SpinBackoff backoff(spin_budget);
  while (!backoff.exhausted()) {
    backoff.pause();
    if (poll()) return true;
  }
  for (i32 y = 0; y < yield_budget; ++y) {
    std::this_thread::yield();
    if (poll()) return true;
  }
  return false;
}

/// Yield budget for the phase between spinning and the futex sleep. On an
/// oversubscribed host the awaited thread is usually *runnable, not
/// running*: sched_yield donates the CPU to it directly, which replaces a
/// futex sleep + peer wake syscall pair per handoff with a single context
/// switch. When the team fits the host there is nobody to yield to — the
/// awaited thread runs on its own CPU — so the phase is skipped entirely.
[[nodiscard]] inline i32 default_yield_budget(int nthreads) noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  const bool oversubscribed =
      hw != 0 && static_cast<unsigned>(nthreads) > hw;
  return oversubscribed ? 64 : 0;
}

}  // namespace aid
