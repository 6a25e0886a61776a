#include "serve/serve_node.h"

#include <algorithm>

#include "common/check.h"
#include "common/env.h"
#include "common/time_source.h"

namespace aid::serve {

namespace {

ServeNode::Config sanitize(ServeNode::Config c,
                           const platform::Platform& platform) {
  // One dispatcher minimum; never more concurrent masters than cores (the
  // pool's apps <= cores invariant must hold even with every dispatcher
  // mid-job and the lease cache warm).
  c.dispatchers = std::clamp(c.dispatchers, 1, platform.num_cores());
  c.preempt_burst = std::max(c.preempt_burst, 0);
  return c;
}

pool::PoolManager::Config pool_config(const ServeNode::Config& c) {
  pool::PoolManager::Config pc;
  pc.policy = c.policy;
  pc.emulate_amp = c.emulate_amp;
  pc.bind_threads = c.bind_threads;
  return pc;
}

std::array<ClassLimits, kNumQosClasses> limits_of(
    const ServeNode::Config& c) {
  std::array<ClassLimits, kNumQosClasses> out;
  for (int i = 0; i < kNumQosClasses; ++i)
    out[static_cast<usize>(i)] = {c.cls[static_cast<usize>(i)].max_queue,
                                  c.cls[static_cast<usize>(i)].max_inflight};
  return out;
}

std::array<int, kNumQosClasses> weights_of(const ServeNode::Config& c) {
  std::array<int, kNumQosClasses> out;
  for (int i = 0; i < kNumQosClasses; ++i)
    out[static_cast<usize>(i)] = c.cls[static_cast<usize>(i)].fair_weight;
  return out;
}

}  // namespace

ServeNode::Config ServeNode::Config::from_env() {
  Config c;
  c.dispatchers = static_cast<int>(
      env::get_int_at_least("AID_SERVE_DISPATCHERS", c.dispatchers, 1));
  c.preempt_burst = static_cast<int>(
      env::get_int_at_least("AID_SERVE_PREEMPT_BURST", c.preempt_burst, 0));
  // Per-class depth/in-flight knobs apply uniformly when set; the
  // per-class defaults stand otherwise (fallback 0 = "unset" sentinel —
  // the floor of 1 routes every malformed or non-positive value there).
  const i64 depth = env::get_int_at_least("AID_SERVE_QUEUE_DEPTH", 0, 1);
  const i64 inflight = env::get_int_at_least("AID_SERVE_INFLIGHT", 0, 1);
  for (auto& cls : c.cls) {
    if (depth > 0) cls.max_queue = static_cast<int>(depth);
    if (inflight > 0) cls.max_inflight = static_cast<int>(inflight);
  }
  if (const auto v = env::get("AID_SERVE_POLICY")) {
    if (!pool::parse_policy(*v, c.policy))
      env::warn_once_ignored(
          "AID_SERVE_POLICY", *v,
          "one of equal-share | big-core-priority | proportional");
  }
  return c;
}

ServeNode::ServeNode(platform::Platform platform, Config config)
    : platform_(std::move(platform)),
      config_(sanitize(std::move(config), platform_)),
      mgr_(platform_, pool_config(config_)),
      admission_(limits_of(config_), weights_of(config_),
                 config_.preempt_burst) {
  // Active leases (<= dispatchers) plus a little cache headroom, capped by
  // the pool's apps <= cores invariant. Eviction below keeps the bound.
  max_leases_ = std::min(platform_.num_cores(), config_.dispatchers + 2);
  dispatchers_.reserve(static_cast<usize>(config_.dispatchers));
  for (int i = 0; i < config_.dispatchers; ++i)
    dispatchers_.emplace_back([this] { dispatcher_main(); });
}

ServeNode::~ServeNode() {
  // Stop admitting; every already-admitted job still drains (runs or is
  // dropped by its own deadline/cancel), so no ticket is left pending.
  admission_.begin_shutdown();
  for (std::thread& t : dispatchers_) t.join();
  {
    const std::scoped_lock lock(lease_mu_);
    for (auto& cache : lease_cache_) cache.clear();  // releases the leases
    registered_leases_ = 0;
  }
}

JobTicket ServeNode::submit(JobSpec spec, const SubmitOptions& opts) {
  AID_CHECK_MSG(spec.deadline_ns >= 0, "negative job deadline");
  if (spec.chain.has_value()) {
    AID_CHECK_MSG(spec.make_body == nullptr, "chain job with a make_body");
  } else {
    AID_CHECK_MSG((spec.body != nullptr) != (spec.make_body != nullptr),
                  "loop job needs exactly one of body and make_body");
    AID_CHECK_MSG(spec.count >= 0, "negative job trip count");
  }
  auto state = std::make_shared<JobState>(std::move(spec));
  state->id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  // A caller-supplied ScheduleSpec token stays a live cancellation channel
  // (parent of the job token), including while the job is still queued.
  if (state->spec.sched.cancel != nullptr)
    state->token.bind(state->spec.sched.cancel);

  if (auto reject = admission_.submit(state, opts)) {
    // Backpressure path: no thread spawned, no lease taken, not queued.
    JobResult r;
    r.status = JobStatus::kRejected;
    r.reject_reason = std::move(*reject);
    r.never_dispatched = true;
    state->resolve(std::move(r));
  }
  return JobTicket(std::move(state));
}

void ServeNode::dispatcher_main() {
  while (std::shared_ptr<JobState> job = admission_.next()) run_job(*job);
}

pool::AppHandle ServeNode::acquire_lease(QosClass cls) {
  const usize c = static_cast<usize>(index_of(cls));
  const std::scoped_lock lock(lease_mu_);
  if (!lease_cache_[c].empty()) {
    pool::AppHandle lease = std::move(lease_cache_[c].back());
    lease_cache_[c].pop_back();
    admission_.note_lease(cls, /*reused=*/true);
    return lease;
  }
  if (registered_leases_ >= max_leases_) {
    // Evict an idle cached lease of another class. One always exists:
    // active leases <= dispatchers - 1 here (this dispatcher holds none),
    // and max_leases_ >= dispatchers.
    for (auto& cache : lease_cache_) {
      if (cache.empty()) continue;
      cache.back().release();
      cache.pop_back();
      --registered_leases_;
      break;
    }
    AID_CHECK_MSG(registered_leases_ < max_leases_,
                  "serve lease accounting out of sync");
  }
  ++registered_leases_;
  admission_.note_lease(cls, /*reused=*/false);
  return mgr_.register_app(std::string("serve/") + to_string(cls),
                           config_.cls[c].pool_weight);
}

void ServeNode::recycle_lease(QosClass cls, pool::AppHandle lease) {
  const usize c = static_cast<usize>(index_of(cls));
  const std::scoped_lock lock(lease_mu_);
  // Park the lease while the class is backlogged (the next job of this
  // class skips the register/repartition round trip); hand the cores back
  // to the arbiter the moment the class goes idle.
  if (admission_.queue_depth(cls) > 0 &&
      lease_cache_[c].size() <
          static_cast<usize>(config_.cls[c].max_inflight)) {
    lease_cache_[c].push_back(std::move(lease));
    return;
  }
  lease.release();
  --registered_leases_;
}

void ServeNode::run_job(JobState& job) {
  const SteadyTimeSource clock;
  const Nanos t0 = clock.now();
  const QosClass cls = job.spec.qos;
  if (job.spec.make_body != nullptr) {
    // Built here rather than at submit, so only running jobs hold body
    // state. The built body stays in the job: nothing is freed on this
    // path before the ticket resolves.
    try {
      job.spec.body = job.spec.make_body();
    } catch (...) {
      admission_.finish_run(job, JobStatus::kFailed, clock.now() - t0,
                            std::current_exception());
      return;
    }
  }
  pool::AppHandle lease = acquire_lease(cls);

  JobStatus status = JobStatus::kDone;
  std::exception_ptr error;
  try {
    if (job.spec.chain.has_value()) {
      // The job token reaches every chain entry that names no token of
      // its own; per-entry deadlines stay with the entries (the job-wide
      // deadline is already armed on the watchdog).
      job.spec.chain->bind_cancel(&job.token);
      lease.run_chain(*job.spec.chain);
    } else {
      lease.run_loop(job.spec.count, job.spec.sched.with_cancel(&job.token),
                     job.spec.body);
    }
    if (job.token.cancelled())
      status = job.token.reason() == CancelReason::kDeadline
                   ? JobStatus::kExpired
                   : JobStatus::kCancelled;
  } catch (...) {
    error = std::current_exception();
    status = JobStatus::kFailed;
  }
  recycle_lease(cls, std::move(lease));

  const Nanos service = clock.now() - t0;
  admission_.finish_run(job, status, service, std::move(error));
}

}  // namespace aid::serve
