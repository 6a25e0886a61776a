#include "rt/runtime.h"

#include <cmath>

#include "common/check.h"
#include "common/env.h"
#include "pipeline/loop_chain.h"
#include "pool/pool_manager.h"

namespace aid::rt {

platform::Platform platform_from_env() {
  if (const auto text = env::get("AID_PLATFORM")) {
    if (auto p = platform::parse_platform(*text)) return std::move(*p);
    env::warn_once_ignored(
        "AID_PLATFORM", *text,
        "odroid-xu4 | xeon-amp | symmetric:N | generic:NS,NB,SPEED");
  }
  return platform::odroid_xu4();
}

Runtime::Runtime(platform::Platform platform, RuntimeConfig config)
    : platform_(std::move(platform)), config_(config) {
  if (config_.use_pool) {
    // The lease always comes from the process-wide manager (one pool per
    // process is the point), so the manager's platform — not the
    // constructor argument — is what layouts refer to; adopt it so
    // platform() and layout() stay consistent. Partition sizing is the
    // arbiter's job: num_threads/mapping from the config do not apply.
    // The name AID_POOL_APP labels co-scheduled runtimes.
    pool::PoolManager& mgr = pool::PoolManager::instance();
    AID_CHECK_MSG(
        platform_.num_cores() == mgr.platform().num_cores() &&
            platform_.num_core_types() == mgr.platform().num_core_types(),
        "AID_POOL leases come from the process-wide PoolManager (one pool "
        "per process); isolated pool runtimes on a different platform are "
        "unsupported — construct with platform_from_env() or use "
        "pool::PoolManager directly");
    // The arbiter divides cores by weight, so only a finite positive one
    // is usable; anything else gets the default share.
    double weight = env::get_double("AID_POOL_WEIGHT", 1.0);
    if (!(std::isfinite(weight) && weight > 0.0)) {
      env::warn_once_ignored("AID_POOL_WEIGHT",
                             env::get_string("AID_POOL_WEIGHT", ""),
                             "a finite number > 0");
      weight = 1.0;
    }
    lease_ = std::make_unique<pool::AppHandle>(mgr.register_app(
        env::get_string("AID_POOL_APP", "runtime"), weight));
    platform_ = mgr.platform();
    // Report the policy the manager runs, not an unparsable name it fell
    // back from.
    config_.pool_policy = pool::to_string(mgr.policy());
  } else {
    // A team larger than the platform cannot be laid out; fall back to one
    // thread per core, as an unparsable AID_NUM_THREADS does.
    if (config_.num_threads > platform_.num_cores()) {
      env::warn_once_ignored(
          "AID_NUM_THREADS", std::to_string(config_.num_threads),
          "at most " + std::to_string(platform_.num_cores()) +
              ", the platform's core count");
      config_.num_threads = 0;
    }
    team_ = std::make_unique<Team>(platform_, config_.num_threads,
                                   config_.mapping, config_.emulate_amp,
                                   config_.bind_threads);
  }
}

Runtime::~Runtime() = default;

Runtime& Runtime::instance() {
  static Runtime runtime(platform_from_env(), RuntimeConfig::from_env());
  return runtime;
}

void Runtime::run_loop(i64 count, const sched::ScheduleSpec& spec,
                       const RangeBody& body) {
  if (lease_ != nullptr)
    lease_->run_loop(count, spec, body);
  else
    team_->run_loop(count, spec, body);
}

void Runtime::run_loop(i64 count, const sched::ScheduleSpec& spec,
                       const RangeBody& body, CancelToken& cancel,
                       i64 deadline_ns) {
  sched::ScheduleSpec bound = spec;
  bound.cancel = &cancel;
  if (deadline_ns > 0) bound.deadline_ns = deadline_ns;
  run_loop(count, bound, body);
}

void Runtime::run_chain(const pipeline::LoopChain& chain) {
  if (lease_ != nullptr)
    lease_->run_chain(chain);
  else
    team_->run_chain(chain);
}

void Runtime::run_chain(const pipeline::LoopChain& chain, CancelToken& cancel,
                        i64 deadline_ns) {
  pipeline::LoopChain bound = chain;
  bound.bind_cancel(&cancel, deadline_ns);
  run_chain(bound);
}

platform::TeamLayout Runtime::layout() const {
  if (lease_ != nullptr) return lease_->layout();
  return team_->layout();
}

int Runtime::nthreads() const {
  if (lease_ != nullptr) return lease_->nthreads();
  return team_->nthreads();
}

sched::SchedulerStats Runtime::last_loop_stats() const {
  if (lease_ != nullptr) return lease_->last_loop_stats();
  return team_->last_loop_stats();
}

sched::SchedulerCache& Runtime::scheduler_cache() {
  if (lease_ != nullptr) return lease_->scheduler_cache();
  return team_->scheduler_cache();
}

WaitBudgets Runtime::wait_budgets() const {
  if (lease_ != nullptr) return lease_->wait_budgets();
  return team_->wait_budgets();
}

const platform::TeamLayout& Runtime::enter_region() {
  if (lease_ != nullptr) return lease_->begin_region();
  return team_->layout();
}

void Runtime::exit_region() {
  if (lease_ != nullptr) lease_->end_region();
}

Team& Runtime::team() {
  AID_CHECK_MSG(team_ != nullptr,
                "AID_POOL=1 routes loops through the shared pool manager; "
                "use Runtime::run_loop/layout/nthreads");
  return *team_;
}

void run_loop(i64 count, const RangeBody& body) {
  Runtime& r = Runtime::instance();
  r.run_loop(count, r.default_schedule(), body);
}

void run_loop(i64 count, const sched::ScheduleSpec& spec,
              const RangeBody& body) {
  Runtime::instance().run_loop(count, spec, body);
}

}  // namespace aid::rt
