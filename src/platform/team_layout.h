// Thread-to-core mapping conventions.
//
// The paper evaluates two bindings (Sec. 5):
//   SB — cores populated in ascending order by thread id, so low-tid threads
//        land on small cores (thread 0, the master, runs serial phases on a
//        small core);
//   BS — descending order, so threads 0..NB-1 get the big cores. All AID
//        variants assume BS (Sec. 4.3 mapping convention), enforced via the
//        GOMP_AMP_AFFINITY-style environment variable.
//
// TeamLayout is the frozen result of applying a mapping to a platform for a
// given thread count; the schedulers consume it (NB, NS, per-tid core type).
#pragma once

#include <string>
#include <vector>

#include "platform/platform.h"

namespace aid::platform {

enum class Mapping {
  kSmallFirst,  ///< "SB": thread 0 on core 0 (small), ascending
  kBigFirst,    ///< "BS": thread 0 on the fastest core, descending
};

[[nodiscard]] const char* to_string(Mapping m);

class TeamLayout {
 public:
  /// Bind `nthreads` threads (1..platform.num_cores(); no oversubscription,
  /// matching the paper's assumption (ii) in Sec. 4.2) to cores.
  TeamLayout(const Platform& platform, int nthreads, Mapping mapping);

  /// Re-layout over an explicit set of platform core ids — the pool
  /// manager's partition view (src/pool/): an app leases an arbitrary
  /// subset of the machine's cores and threads are assigned to exactly
  /// those. `cores` must be non-empty, in range, and duplicate-free.
  /// BS assigns tid 0 the fastest (highest-id) core, descending; SB the
  /// slowest (lowest-id) core, ascending — consistent with the whole-
  /// machine constructors, so AID's "low tids on big cores" convention
  /// holds on any partition.
  TeamLayout(const Platform& platform, std::vector<int> cores,
             Mapping mapping);

  [[nodiscard]] int nthreads() const { return static_cast<int>(core_of_.size()); }
  [[nodiscard]] int num_core_types() const {
    return static_cast<int>(threads_of_type_.size());
  }

  /// Core id the thread is bound to.
  [[nodiscard]] int core_of(int tid) const;
  /// Core type (0 = slowest) of the thread's core.
  [[nodiscard]] int core_type_of(int tid) const;
  /// Nominal speed of the thread's core (relative to slowest type).
  [[nodiscard]] double speed_of(int tid) const;

  /// Number of team threads bound to cores of the given type.
  [[nodiscard]] int threads_of_type(int type) const;

  /// Convenience for the common two-type case (and the AID notation):
  /// NB = threads on the fastest type, NS = all remaining threads.
  [[nodiscard]] int nb() const;
  [[nodiscard]] int ns() const;

  [[nodiscard]] Mapping mapping() const { return mapping_; }

  /// True when every thread runs on the same core type (no asymmetry visible
  /// to the team — AID degenerates to even distribution).
  [[nodiscard]] bool is_uniform() const;

  /// One line per thread: "tid 3 -> core 5 (type 1, Cortex-A15)".
  [[nodiscard]] std::string describe() const;

 private:
  Mapping mapping_;
  std::vector<int> core_of_;        // tid -> core id
  std::vector<int> core_type_of_;   // tid -> core type
  std::vector<double> speed_of_;    // tid -> nominal speed
  std::vector<int> threads_of_type_;
  std::vector<std::string> type_names_;
};

}  // namespace aid::platform
