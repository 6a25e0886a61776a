#include "pool/pool_manager.h"

#include <algorithm>
#include <exception>

#include "common/check.h"
#include "common/env.h"
#include "pipeline/loop_chain.h"
#include "rt/runtime.h"

namespace aid::pool {
namespace {

/// Cores of `type` on the platform, ascending id.
std::vector<int> cores_of_type(const platform::Platform& p, int type) {
  std::vector<int> out;
  const int first = p.first_core_of_type(type);
  for (int c = first; c < first + p.cores_of_type(type); ++c)
    out.push_back(c);
  return out;
}

}  // namespace

// --- AppHandle -------------------------------------------------------------

AppHandle::~AppHandle() { release(); }

AppHandle::AppHandle(AppHandle&& other) noexcept
    : mgr_(other.mgr_), id_(other.id_) {
  other.mgr_ = nullptr;
}

AppHandle& AppHandle::operator=(AppHandle&& other) noexcept {
  if (this != &other) {
    release();
    mgr_ = other.mgr_;
    id_ = other.id_;
    other.mgr_ = nullptr;
  }
  return *this;
}

void AppHandle::release() {
  if (mgr_ == nullptr) return;
  mgr_->unregister(id_);
  mgr_ = nullptr;
}

void AppHandle::run_loop(i64 count, const sched::ScheduleSpec& spec,
                         const rt::RangeBody& body) {
  AID_CHECK_MSG(mgr_ != nullptr, "run_loop on a released app lease");
  mgr_->run_loop(id_, count, spec, body);
}

void AppHandle::run_chain(const pipeline::LoopChain& chain) {
  AID_CHECK_MSG(mgr_ != nullptr, "run_chain on a released app lease");
  mgr_->run_chain(id_, chain);
}

void AppHandle::cancel() {
  AID_CHECK_MSG(mgr_ != nullptr, "cancel on a released app lease");
  // The mutex only guards the map lookup; the token itself is atomic and
  // is read lock-free by every participant of the in-flight construct.
  std::scoped_lock lk(mgr_->mutex_);
  mgr_->app_of(id_).cancel_token.cancel(CancelReason::kUser);
}

const platform::TeamLayout& AppHandle::begin_region() {
  AID_CHECK_MSG(mgr_ != nullptr, "begin_region on a released app lease");
  std::unique_lock lk(mgr_->mutex_);
  PoolManager::App& a = mgr_->app_of(id_);
  if (a.region_depth == 0) {
    // wait() evaluates the predicate (which adopts) before blocking.
    mgr_->granted_.wait(lk, [&] {
      mgr_->commit_idle();
      return !a.current.empty();
    });
  }
  ++a.region_depth;
  return *a.layout;
}

void AppHandle::end_region() {
  AID_CHECK_MSG(mgr_ != nullptr, "end_region on a released app lease");
  std::scoped_lock lk(mgr_->mutex_);
  PoolManager::App& a = mgr_->app_of(id_);
  AID_CHECK_MSG(a.region_depth > 0, "end_region without begin_region");
  if (--a.region_depth == 0) {
    mgr_->commit_idle();
    mgr_->granted_.notify_all();
  }
}

platform::TeamLayout AppHandle::layout() const {
  AID_CHECK_MSG(mgr_ != nullptr, "layout() on a released app lease");
  std::scoped_lock lk(mgr_->mutex_);
  const PoolManager::App& a = mgr_->app_of(id_);
  if (a.layout != nullptr) return *a.layout;
  // Grant not yet materialized (a draining neighbour still holds the
  // cores): describe the pending target instead — arbitrate() guarantees
  // it is non-empty, so nthreads()/allotment() never report a bogus 0
  // partition in the registration window.
  return platform::TeamLayout(mgr_->platform_, a.pending,
                              platform::Mapping::kBigFirst);
}

AppAllotment AppHandle::allotment() const {
  const platform::TeamLayout snapshot = layout();
  return {snapshot.nb(), snapshot.ns()};
}

sched::SchedulerStats AppHandle::last_loop_stats() const {
  AID_CHECK_MSG(mgr_ != nullptr, "stats on a released app lease");
  std::scoped_lock lk(mgr_->mutex_);
  return mgr_->app_of(id_).last_stats;
}

sched::SchedulerCache& AppHandle::scheduler_cache() {
  AID_CHECK_MSG(mgr_ != nullptr, "scheduler_cache on a released app lease");
  std::scoped_lock lk(mgr_->mutex_);
  return *mgr_->app_of(id_).cache;
}

rt::WaitBudgets AppHandle::wait_budgets() const {
  AID_CHECK_MSG(mgr_ != nullptr, "wait_budgets on a released app lease");
  return mgr_->pool_.budgets();
}

// --- PoolManager -----------------------------------------------------------

PoolManager& PoolManager::instance() {
  static PoolManager manager(rt::platform_from_env(), [] {
    const rt::RuntimeConfig rc = rt::RuntimeConfig::from_env();
    Config c;
    // The policy travels through RuntimeConfig as an opaque name (rt/ does
    // not depend on pool/); unparsable values fall back to the default,
    // libgomp-style.
    if (!parse_policy(rc.pool_policy, c.policy))
      env::warn_once_ignored(
          "AID_POOL_POLICY", rc.pool_policy,
          "one of equal-share | big-core-priority | proportional");
    c.emulate_amp = rc.emulate_amp;
    c.bind_threads = rc.bind_threads;
    return c;
  }());
  return manager;
}

PoolManager::PoolManager(platform::Platform platform, Config config)
    : platform_(std::move(platform)),
      config_(config),
      pool_(platform_, {config.emulate_amp, config.bind_threads},
            rt::wait_budgets(platform_.num_cores())) {}

PoolManager::~PoolManager() {
  std::scoped_lock lk(mutex_);
  AID_CHECK_MSG(apps_.empty(),
                "PoolManager destroyed with live app leases");
}

PoolManager::App& PoolManager::app_of(u64 id) {
  const auto it = apps_.find(id);
  AID_CHECK_MSG(it != apps_.end(), "unknown app lease");
  return *it->second;
}

const PoolManager::App& PoolManager::app_of(u64 id) const {
  const auto it = apps_.find(id);
  AID_CHECK_MSG(it != apps_.end(), "unknown app lease");
  return *it->second;
}

AppHandle PoolManager::register_app(std::string name, double weight) {
  std::scoped_lock lk(mutex_);
  AID_CHECK_MSG(static_cast<int>(apps_.size()) < platform_.num_cores(),
                "more apps than cores in the pool");
  const u64 id = next_id_++;
  auto app = std::make_unique<App>();
  app->id = id;
  app->name = std::move(name);
  app->weight = weight;
  app->cache = std::make_unique<sched::SchedulerCache>();
  if (retired_.empty()) {
    app->job = std::make_unique<rt::PoolJob>();
  } else {
    // Recycle a retired app's job (quiescent by now: its unregister
    // required no loop in flight).
    app->job = std::move(retired_.back());
    retired_.pop_back();
  }
  apps_.emplace(id, std::move(app));
  compute_targets();
  commit_idle();
  granted_.notify_all();
  return AppHandle(this, id);
}

void PoolManager::unregister(u64 id) {
  std::scoped_lock lk(mutex_);
  App& a = app_of(id);
  AID_CHECK_MSG(!a.in_loop && a.region_depth == 0,
                "app lease released with a loop or region in flight");
  // Workers may still touch the job's completion words briefly after the
  // app's last join; park it for recycling instead of freeing.
  retired_.push_back(std::move(a.job));
  apps_.erase(id);
  if (!apps_.empty()) compute_targets();
  commit_idle();
  granted_.notify_all();
}

void PoolManager::set_policy(Policy policy) {
  std::scoped_lock lk(mutex_);
  config_.policy = policy;
  if (!apps_.empty()) compute_targets();
  commit_idle();
  granted_.notify_all();
}

Policy PoolManager::policy() const {
  std::scoped_lock lk(mutex_);
  return config_.policy;
}

void PoolManager::repartition() {
  std::scoped_lock lk(mutex_);
  if (!apps_.empty()) compute_targets();
  commit_idle();
  granted_.notify_all();
}

int PoolManager::registered_apps() const {
  std::scoped_lock lk(mutex_);
  return static_cast<int>(apps_.size());
}

int PoolManager::total_threads() const {
  std::scoped_lock lk(mutex_);
  return pool_.spawned_workers() + static_cast<int>(apps_.size());
}

void PoolManager::compute_targets() {
  std::vector<App*> apps;  // registration order (map is keyed by id)
  std::vector<double> weights;
  for (auto& [id, app] : apps_) {
    apps.push_back(app.get());
    weights.push_back(app->weight);
  }
  std::vector<int> per_type(static_cast<usize>(platform_.num_core_types()));
  for (int t = 0; t < platform_.num_core_types(); ++t)
    per_type[static_cast<usize>(t)] = platform_.cores_of_type(t);

  const auto counts = arbitrate(per_type, weights, config_.policy);
  targets_epoch_.fetch_add(1, std::memory_order_release);

  // Counts -> concrete core ids, sticky: an app first keeps cores it
  // already holds of each type (fastest-held first, so partition masters
  // stay put), then free cores fill the remainder in app order.
  std::vector<bool> taken(static_cast<usize>(platform_.num_cores()), false);
  std::vector<std::vector<int>> kept(apps.size());
  for (usize a = 0; a < apps.size(); ++a) {
    std::vector<int> want = counts[a];
    std::vector<int> cur = apps[a]->current;  // sorted ascending
    for (auto it = cur.rbegin(); it != cur.rend(); ++it) {
      const int type = platform_.core_type_of(*it);
      if (want[static_cast<usize>(type)] > 0) {
        --want[static_cast<usize>(type)];
        kept[a].push_back(*it);
        taken[static_cast<usize>(*it)] = true;
      }
    }
  }
  for (usize a = 0; a < apps.size(); ++a) {
    std::vector<int> want = counts[a];
    for (const int c : kept[a])
      --want[static_cast<usize>(platform_.core_type_of(c))];
    std::vector<int> target = kept[a];
    for (int t = 0; t < platform_.num_core_types(); ++t) {
      for (const int c : cores_of_type(platform_, t)) {
        if (want[static_cast<usize>(t)] == 0) break;
        if (taken[static_cast<usize>(c)]) continue;
        taken[static_cast<usize>(c)] = true;
        target.push_back(c);
        --want[static_cast<usize>(t)];
      }
      AID_CHECK(want[static_cast<usize>(t)] == 0);
    }
    std::sort(target.begin(), target.end());
    apps[a]->pending = std::move(target);
  }
}

std::vector<int> PoolManager::achievable_of(const App& app) const {
  // Achievable now = pending minus cores other apps still hold (an in-loop
  // neighbour releases its revoked cores at its own loop boundary).
  std::vector<bool> held(static_cast<usize>(platform_.num_cores()), false);
  for (const auto& [id, other] : apps_) {
    if (other.get() == &app) continue;
    for (const int c : other->current) held[static_cast<usize>(c)] = true;
  }
  std::vector<int> achievable;
  for (const int c : app.pending)
    if (!held[static_cast<usize>(c)]) achievable.push_back(c);
  return achievable;
}

bool PoolManager::can_adopt_now(const App& app) const {
  const std::vector<int> achievable = achievable_of(app);
  return !achievable.empty() && achievable != app.current;
}

void PoolManager::adopt(App& app) {
  std::vector<int> achievable = achievable_of(app);
  // Never adopt an empty partition while waiting for a neighbour to drain;
  // keep what we have until the grant materializes.
  if (achievable.empty()) return;
  if (achievable == app.current) return;

  app.current = std::move(achievable);
  app.layout = std::make_unique<platform::TeamLayout>(
      platform_, app.current, platform::Mapping::kBigFirst);
  // The partition moved: every cached scheduler bakes in the old layout's
  // thread count and per-thread shards. Idle instances die now; in-flight
  // ones (a chain committing between ring entries) die on their release.
  app.cache->invalidate();
  targets_epoch_.fetch_add(1, std::memory_order_release);
}

void PoolManager::commit_idle() {
  // Fixpoint: adopting a shrink frees cores that let a later grow succeed,
  // so iterate until nothing moves. Bounded by total core transfers.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [id, app] : apps_) {
      if (app->in_loop || app->region_depth > 0) continue;
      const std::vector<int> before = app->current;
      adopt(*app);
      if (app->current != before) changed = true;
    }
  }
}

rt::WorkerPool::Owner PoolManager::begin_construct(u64 id) {
  rt::WorkerPool::Owner owner;
  const platform::TeamLayout* layout = nullptr;
  {
    std::unique_lock lk(mutex_);
    App& a = app_of(id);
    AID_CHECK_MSG(!a.in_loop,
                  "nested/concurrent run_loop/run_chain on one app lease");
    if (a.region_depth == 0) {
      // The loop boundary: adopt pending grants/revokes (the wait's
      // predicate runs before blocking), and if every one of our granted
      // cores is still held by a draining neighbour, wait for its
      // boundary.
      granted_.wait(lk, [&] {
        commit_idle();
        return !a.current.empty();
      });
    }
    AID_CHECK_MSG(!a.current.empty(), "app lease holds no cores");
    a.in_loop = true;
    // Re-arm the lease-wide cancel parent for this construct (no construct
    // was in flight, so nobody reads it concurrently with the reset); one
    // AppHandle::cancel() then kills every in-flight entry of it.
    a.cancel_token.reset();
    // Shard membership follows the partition: the cache was invalidated in
    // adopt() if the partition moved, so a cache hit always re-arms an
    // instance built (and sharded) for the current layout.
    owner = {a.job.get(), a.cache.get(), &a.cancel_token, &watchdog_};
    layout = a.layout.get();
  }
  // Outside the mutex: opening a window may bind the calling thread (a
  // lease may be driven by different threads over its lifetime).
  pool_.open_window(*layout, *owner.job);
  return owner;
}

void PoolManager::end_construct(u64 id, const sched::SchedulerStats& stats) {
  std::scoped_lock lk(mutex_);
  App& a = app_of(id);
  a.last_stats = stats;
  a.in_loop = false;
  if (a.region_depth == 0) commit_idle();
  granted_.notify_all();
}

void PoolManager::run_loop(u64 id, i64 count, const sched::ScheduleSpec& spec,
                           const rt::RangeBody& body) {
  const rt::WorkerPool::Owner owner = begin_construct(id);
  sched::SchedulerStats stats;
  const std::exception_ptr error =
      pool_.run_loop(owner, count, spec, body, stats);
  end_construct(id, stats);
  // Lease state released FIRST, rethrow LAST: a thrown body leaves the
  // lease reusable (subsequent loops work) and co-tenants unaffected.
  if (error) std::rethrow_exception(error);
}

void PoolManager::run_chain(u64 id, const pipeline::LoopChain& chain) {
  if (chain.empty()) return;
  const rt::WorkerPool::Owner owner = begin_construct(id);

  // The between-entries hook: repartitions commit at ring-entry
  // granularity. `pending` is true when the arbiter has a new target for
  // this app that is *adoptable right now* (and no region pins the
  // layout); the driver then stops publishing, drains the published
  // entries and calls `commit` — a flowing boundary instead of a
  // stop-the-world one between whole constructs. A pending target whose
  // cores a neighbour still holds must not stall the chain (the commit
  // would be a no-op and the probe would spin), so the chain keeps flowing
  // on its current partition until the grant materializes. The probe is
  // lock-free in steady state: it takes the manager mutex only when the
  // targets epoch moved since it last looked.
  u64 probe_seen = targets_epoch_.load(std::memory_order_acquire) - 1;
  bool probe_result = false;
  rt::WorkerPool::ChainHook hook;
  hook.pending = [&] {
    if (targets_epoch_.load(std::memory_order_acquire) != probe_seen) {
      std::scoped_lock lk(mutex_);
      probe_seen = targets_epoch_.load(std::memory_order_relaxed);
      const App& a = app_of(id);
      probe_result = a.region_depth == 0 && can_adopt_now(a);
    }
    return probe_result;
  };
  hook.commit = [&](const rt::WorkerPool::Owner& o) {
    const platform::TeamLayout* layout = nullptr;
    {
      std::unique_lock lk(mutex_);
      App& a = app_of(id);
      a.in_loop = false;
      granted_.notify_all();
      granted_.wait(lk, [&] {
        commit_idle();
        return !a.current.empty();
      });
      a.in_loop = true;
      layout = a.layout.get();
    }
    pool_.open_window(*layout, *o.job);
  };

  sched::SchedulerStats stats;
  const std::exception_ptr error = pool_.run_chain(owner, chain, &hook, stats);
  end_construct(id, stats);
  // Lease state released FIRST, rethrow LAST (same contract as run_loop).
  if (error) std::rethrow_exception(error);
}

}  // namespace aid::pool
