// ServeNode — the multi-tenant serving facade over the shared worker pool.
//
// N≫2 concurrent clients submit loop/chain jobs; the node owns the
// PoolManager, an AdmissionController (QoS queueing, backpressure,
// deadline expiry) and a small dispatcher thread pool. Each dispatcher
// pops the next job by the queue discipline and runs it as the *master*
// of a pool lease belonging to the job's QoS class:
//
//   client → submit → [JobQueue ⟶ AdmissionController] → dispatcher
//          (builds a deferred body, JobSpec::make_body)
//          → class lease (AppHandle::run_loop / run_chain) → ticket
//
// Leases are RECYCLED across jobs of the same class: a dispatcher that
// finishes a job parks the lease in a per-class cache while the class is
// backlogged (back-to-back jobs skip the register/repartition round
// trip) and releases it once the class queue is empty, so an idle class
// returns its cores to the arbiter instead of squatting on them. The
// cache plus active leases never exceed the machine's core count (the
// PoolManager's apps ≤ cores invariant); when the cap binds, an idle
// cached lease of another class is evicted first.
//
// QoS → arbitration mapping (see serve/qos.h and README.md): class pool
// weights descend latency > normal > batch, and the node's default
// arbitration policy is big-core-priority — so latency partitions pack
// onto the big cores, batch is squeezed to a small share, and switching
// the node to equal-share / proportional reinterprets the same weights
// as the fair / weight-proportional OS personalities from the paper's
// Sec. 4.3 scenario.
//
// This is the runtime's promotion from one app's library to a node-level
// service; any future ingress (shared-memory, socket) terminates in
// submit(). Design note: src/serve/README.md.
#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "platform/platform.h"
#include "pool/pool_manager.h"
#include "serve/admission.h"
#include "serve/job.h"
#include "serve/qos.h"

namespace aid::serve {

class ServeNode {
 public:
  struct ClassConfig {
    int max_queue = 64;     ///< queued-job depth limit (backpressure above)
    int max_inflight = 2;   ///< concurrent leases running this class
    int fair_weight = 1;    ///< weighted-fair dequeue share
    double pool_weight = 1.0;  ///< pool::arbitrate() weight of class leases
  };

  struct Config {
    pool::Policy policy = pool::Policy::kBigCorePriority;
    int dispatchers = kNumQosClasses;
    int preempt_burst = 4;  ///< consecutive priority preemptions of queued work
    bool emulate_amp = false;
    bool bind_threads = false;
    std::array<ClassConfig, kNumQosClasses> cls = default_classes();

    [[nodiscard]] static std::array<ClassConfig, kNumQosClasses>
    default_classes() {
      return {{
          {64, 2, 8, 4.0},  // latency
          {64, 2, 4, 2.0},  // normal
          {64, 1, 1, 1.0},  // batch
      }};
    }

    /// AID_SERVE_DISPATCHERS, AID_SERVE_QUEUE_DEPTH, AID_SERVE_INFLIGHT,
    /// AID_SERVE_PREEMPT_BURST, AID_SERVE_POLICY (see src/serve/README.md
    /// for the grammar; malformed values warn once and fall back).
    [[nodiscard]] static Config from_env();
  };

  ServeNode(platform::Platform platform, Config config);
  explicit ServeNode(platform::Platform platform)
      : ServeNode(std::move(platform), Config::from_env()) {}

  /// Drains every admitted job, then stops the dispatchers and releases
  /// all leases. Jobs submitted during destruction are rejected.
  ~ServeNode();

  ServeNode(const ServeNode&) = delete;
  ServeNode& operator=(const ServeNode&) = delete;

  /// Submit a job. Always returns a valid ticket: admission failures
  /// (backpressure, shutdown) resolve it immediately as kRejected with a
  /// reason — no thread is spawned and no lease is taken on that path.
  [[nodiscard]] JobTicket submit(JobSpec spec, const SubmitOptions& opts = {});

  /// Switch the pool's arbitration policy (repartitions at the co-running
  /// jobs' loop boundaries, like any PoolManager policy flip).
  void set_policy(pool::Policy policy) { mgr_.set_policy(policy); }

  /// Block until nothing is queued and nothing is running.
  void drain() { admission_.wait_idle(); }

  [[nodiscard]] ClassStats class_stats(QosClass cls) const {
    return admission_.stats(cls);
  }
  [[nodiscard]] usize queue_depth(QosClass cls) const {
    return admission_.queue_depth(cls);
  }

  /// The node's pool, for observability (spawned_workers, registered_apps)
  /// — tests assert the no-spawn-on-reject guarantee through it.
  [[nodiscard]] pool::PoolManager& pool() { return mgr_; }

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  void dispatcher_main();
  void run_job(JobState& job);
  [[nodiscard]] pool::AppHandle acquire_lease(QosClass cls);
  void recycle_lease(QosClass cls, pool::AppHandle lease);

  platform::Platform platform_;
  Config config_;
  pool::PoolManager mgr_;
  AdmissionController admission_;
  std::atomic<u64> next_job_id_{1};

  // Per-class idle-lease cache (recycling). Guarded by lease_mu_;
  // destroyed before mgr_ (declared after it) so every lease is back in
  // the manager before ~PoolManager checks for stragglers.
  std::mutex lease_mu_;
  std::array<std::vector<pool::AppHandle>, kNumQosClasses> lease_cache_;
  int registered_leases_ = 0;
  int max_leases_ = 0;

  std::vector<std::thread> dispatchers_;
};

}  // namespace aid::serve
