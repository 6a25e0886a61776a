#include "sched/scheduler_cache.h"

#include <algorithm>

#include "common/check.h"

namespace aid::sched {

LoopScheduler* SchedulerCache::acquire(const ScheduleSpec& spec, i64 count,
                                       const platform::TeamLayout& layout) {
  std::unique_lock lock(mutex_);
  for (Entry& e : entries_) {
    if (e.busy || e.epoch != epoch_ || !(e.spec == spec)) continue;
    e.busy = true;
    ++hits_;
    // reset() runs outside the lock: the instance is exclusively ours
    // now, and re-arming a sharded pool touches every shard's line.
    // (Entry pointers stay valid across concurrent push_backs — the
    // instances live behind unique_ptrs.)
    LoopScheduler* sched = e.sched.get();
    lock.unlock();
    sched->reset(count);
    return sched;
  }
  ++misses_;
  const u64 epoch = epoch_;
  lock.unlock();
  // Miss: construct outside the lock (the expensive path this cache
  // exists to amortize), then register the busy entry.
  auto fresh = make_sharded_scheduler(spec, count, layout);
  LoopScheduler* raw = fresh.get();
  lock.lock();
  entries_.push_back(Entry{spec, std::move(fresh), /*busy=*/true, epoch});
  return raw;
}

void SchedulerCache::release(LoopScheduler* sched) {
  if (sched == nullptr) return;
  const std::scoped_lock lock(mutex_);
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [&](const Entry& e) { return e.sched.get() == sched; });
  AID_CHECK_MSG(it != entries_.end() && it->busy,
                "release of a scheduler this cache did not hand out");
  // Doomed by an invalidate() while in flight: the instance bakes in a
  // dead layout — destroy instead of repooling.
  if (it->epoch != epoch_) {
    entries_.erase(it);
    return;
  }
  it->busy = false;
  // Retention cap per shape: a chain holds at most kChainRing same-shape
  // constructs in flight, so idle instances beyond that can never all be
  // needed again at once.
  usize idle = 0;
  for (const Entry& e : entries_)
    if (!e.busy && e.spec == it->spec) ++idle;
  if (idle > kInstancesPerShape) entries_.erase(it);
}

void SchedulerCache::invalidate() {
  const std::scoped_lock lock(mutex_);
  ++epoch_;
  std::erase_if(entries_, [](const Entry& e) { return !e.busy; });
}

u64 SchedulerCache::hits() const {
  const std::scoped_lock lock(mutex_);
  return hits_;
}

u64 SchedulerCache::misses() const {
  const std::scoped_lock lock(mutex_);
  return misses_;
}

}  // namespace aid::sched
