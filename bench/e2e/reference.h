// The benchmark's own bare implementation of each schedule family, run by
// plain threads on the same cores as the system under test.
//
// The baseline host's speed drifts by tens of percent between runs: its
// neighbours' load changes the vCPUs' speed, the small cores' realised
// slowdown under emulation, and the cost of moving a cache line between
// cores. A pass divided by a reference pass of the same round cancels that
// drift. No libaid runtime, scheduler, pool or serving code is on the
// reference's path, so it does not cancel a change to them. Only the
// kernels (workloads::ServeKernel bodies) and the small-core emulation
// (common/spin_work, as rt::Throttle uses it) are shared.
#pragma once

#include <atomic>
#include <barrier>
#include <thread>
#include <utility>
#include <vector>

#include "common/padded.h"
#include "common/types.h"
#include "e2e.h"
#include "platform/team_layout.h"
#include "workloads/serve_kernel.h"

namespace aid::e2e {

class Reference {
 public:
  /// Thread t is pinned to layout.core_of(t); with `emulate`, its body
  /// time is charged (fastest speed / its speed − 1) × itself in spin work.
  Reference(const platform::TeamLayout& layout, bool emulate);
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// One reference pass of each kind over the same kernels, in ns.
  struct Times {
    /// Equal contiguous shares: the bare `static`.
    double equal = 0.0;
    /// The equal pass's wall time had each kernel been split in proportion
    /// to the measured speed of each core type: per kernel, the slowest
    /// type's mean share time is replaced by n / Σ_types (threads of the
    /// type / its mean share time). Equals `equal` on one core type.
    double balanced = 0.0;
    /// One iteration at a time from a shared counter: the bare `dynamic,1`.
    double dynamic = 0.0;

    [[nodiscard]] double of(RefKind kind) const {
      return kind == RefKind::kEqual      ? equal
             : kind == RefKind::kBalanced ? balanced
                                          : dynamic;
    }
  };

  /// An equal-share pass, then a dynamic pass, over `kernels` in order,
  /// with a barrier after each kernel.
  Times run(const std::vector<const workloads::ServeKernel*>& kernels);

 private:
  /// One pass; returns its wall time and, for the equal split, the
  /// balanced time (Times::balanced).
  std::pair<double, double> pass(bool dynamic);
  void work(usize t);

  const usize n_;
  std::vector<double> slowdown_;  ///< per thread; 1 = no emulation charge
  std::vector<std::vector<usize>> types_;  ///< threads of each core type
  /// busy_[t][j]: thread t's time on kernel j, body and emulation charge.
  std::vector<std::vector<double>> busy_;
  std::vector<Padded<std::atomic<i64>>> next_;  ///< per kernel (dynamic)
  // Set by run() before the start barrier, read by the threads after it.
  const std::vector<const workloads::ServeKernel*>* kernels_ = nullptr;
  bool dynamic_ = false;
  bool stop_ = false;
  std::barrier<> start_;    ///< n threads + the caller
  std::barrier<> kernel_;   ///< n threads, after each kernel
  std::barrier<> done_;     ///< n threads + the caller
  std::vector<std::jthread> threads_;  ///< last: joined before the rest dies
};

}  // namespace aid::e2e
