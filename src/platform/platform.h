// Asymmetric multicore platform model.
//
// A Platform is an ordered list of core clusters (core types). Following the
// paper's convention (Sec. 5: "big cores have CPU numbers ranging between 4
// and 7; CPUs 0-3 are small cores"), clusters are stored slowest-first and
// core ids are assigned cluster by cluster, so small cores always occupy the
// low core numbers.
//
// Cluster `speed` is the *nominal* per-core throughput relative to the
// slowest cluster (= 1.0). Per-loop speedup factors (SF) in workload profiles
// override it — the paper's central observation (Fig. 2) is precisely that SF
// is loop-specific, not a platform constant.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace aid::platform {

/// One homogeneous group of cores (e.g. the Cortex-A15 cluster).
struct CoreCluster {
  std::string name;       ///< e.g. "Cortex-A15"
  int count = 0;          ///< number of cores in the cluster
  double speed = 1.0;     ///< nominal throughput relative to slowest cluster
  double freq_ghz = 0.0;  ///< informational (Table 1)
  std::string microarch;  ///< informational: "out-of-order", "in-order", ...

  /// Two-component speed model: compute-bound code speeds up by
  /// `compute_speed`, memory-bound code only by `mem_speed` (uncore/DRAM do
  /// not scale with core capability). A loop with compute fraction c then
  /// has SF = 1 / (c/compute_speed + (1-c)/mem_speed) — this is why SF is
  /// loop-specific and platform-specific (paper Fig. 2): the out-of-order
  /// A15 gives compute-bound loops up to ~9x, while the duty-cycle-throttled
  /// Xeon compresses every loop into ~1.5–2.25x. Values <= 0 default to
  /// `speed` (pure uniform scaling).
  double compute_speed = 0.0;
  double mem_speed = 0.0;

  [[nodiscard]] double effective_compute_speed() const {
    return compute_speed > 0.0 ? compute_speed : speed;
  }
  [[nodiscard]] double effective_mem_speed() const {
    return mem_speed > 0.0 ? mem_speed : speed;
  }
};

/// Speedup of a cluster for a loop with the given compute fraction in [0,1]
/// (harmonic mix of the two speed components).
[[nodiscard]] double speedup_mix(const CoreCluster& cluster,
                                 double compute_fraction);

class Platform {
 public:
  /// Clusters must be ordered slowest-first with cluster[0].speed == 1.0 and
  /// speeds non-decreasing; every cluster must have count >= 1.
  Platform(std::string name, std::vector<CoreCluster> clusters);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<CoreCluster>& clusters() const {
    return clusters_;
  }

  [[nodiscard]] int num_cores() const { return num_cores_; }
  [[nodiscard]] int num_core_types() const {
    return static_cast<int>(clusters_.size());
  }

  /// Core type (cluster index; 0 = slowest) of a core id.
  [[nodiscard]] int core_type_of(int core_id) const;

  /// First core id belonging to the given cluster.
  [[nodiscard]] int first_core_of_type(int type) const;

  [[nodiscard]] double speed_of_type(int type) const;
  [[nodiscard]] double speed_of_core(int core_id) const {
    return speed_of_type(core_type_of(core_id));
  }

  /// Count of cores of the given type.
  [[nodiscard]] int cores_of_type(int type) const;

  /// Nominal big-to-small speed ratio: fastest cluster speed / slowest.
  [[nodiscard]] double nominal_asymmetry() const;

  /// A derived platform keeping `count_per_type[t]` cores of each type
  /// (e.g. the paper's 2B-2S configuration of the Odroid). Types whose count
  /// drops to zero are removed; speeds are re-normalized to the new slowest.
  [[nodiscard]] Platform subset(const std::vector<int>& count_per_type,
                                std::string new_name) const;

  /// Human-readable summary (Table 1-style), one line per cluster.
  [[nodiscard]] std::string describe() const;

  /// How strongly shared-resource pressure under full team occupancy (LLC
  /// thrashing, LPDDR3 bandwidth, big-cluster thermal DVFS) erodes a loop's
  /// compute fraction (see workloads/profile.h). The Odroid is highly
  /// sensitive — paper Sec. 5C: blackscholes' per-thread misses grow 3.6x
  /// with 8 threads and its effective SF collapses from ~6x to ~1.5-2.5x;
  /// the Xeon with its 20MB LLC much less so.
  [[nodiscard]] double contention_sensitivity() const {
    return contention_sensitivity_;
  }
  void set_contention_sensitivity(double s) { contention_sensitivity_ = s; }

  /// Absolute single-thread throughput of the slowest core type, relative
  /// to Platform A's Cortex-A7 (= 1.0). Workload profiles express iteration
  /// costs in Cortex-A7 nanoseconds; on a platform whose *small* cores are
  /// already fast (the throttled Xeon is still a wide OoO core), the same
  /// iteration completes sooner while the runtime's bookkeeping cost does
  /// not shrink with it — which is exactly why the paper finds dynamic's
  /// overhead more dangerous on Platform B (Sec. 5A: CG slows down 2.86x).
  [[nodiscard]] double reference_throughput() const {
    return reference_throughput_;
  }
  void set_reference_throughput(double t) { reference_throughput_ = t; }

 private:
  std::string name_;
  std::vector<CoreCluster> clusters_;
  std::vector<int> first_core_;  // first core id per cluster, plus sentinel
  int num_cores_ = 0;
  double contention_sensitivity_ = 0.3;
  double reference_throughput_ = 1.0;
};

/// The paper's Platform A: Odroid-XU4, ARM big.LITTLE (4x Cortex-A7 small +
/// 4x Cortex-A15 big). The nominal speed ratio reflects clock (1.5 vs 2.0
/// GHz) plus in-order/out-of-order gap; per-loop SF on this board spans
/// 1x..8.9x (paper Sec. 5), which workload profiles encode per loop.
[[nodiscard]] Platform odroid_xu4();

/// The paper's Platform B: Xeon E5-2620 v4 with 4 cores duty-cycle+frequency
/// throttled to emulate small cores (1.2 GHz @ 87.5% duty vs 2.1 GHz full).
/// Nominal ratio = (2.1 / (1.2 * 0.875)) = 2.0; observed per-loop SF spans
/// 1.7x..2.3x.
[[nodiscard]] Platform xeon_emulated_amp();

/// Symmetric n-core platform (baseline configurations like Fig. 1b's 4S).
[[nodiscard]] Platform symmetric(int cores, std::string name = "symmetric",
                                 double freq_ghz = 2.0);

/// Generic two-type AMP with the given counts and big/small speed ratio.
[[nodiscard]] Platform generic_amp(int small_cores, int big_cores,
                                   double big_speed,
                                   std::string name = "generic-amp");

/// Parse a platform description (the AID_PLATFORM environment variable):
///   "odroid-xu4" | "platform-a"      — the paper's Platform A
///   "xeon-amp"   | "platform-b"      — the paper's Platform B
///   "symmetric:N"                    — N identical cores
///   "generic:NS,NB,SPEED"            — NS small + NB big cores, big SPEEDx
/// Returns nullopt on malformed input.
[[nodiscard]] std::optional<Platform> parse_platform(std::string_view text);

}  // namespace aid::platform
