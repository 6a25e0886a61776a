// The shared iteration pool — libaid's analog of libgomp's work_share.
//
// As in libgomp (paper Sec. 4.2): `next` tracks the first unassigned
// iteration and `end` the loop bound; removal is a single lock-free
// fetch-and-add, with the caller clamping the result against `end`.
//
// Contention hardening beyond libgomp — a take costs exactly one contended
// RMW, and no other line it touches is written per take by another thread:
//  * the cursor `next_` sits alone on its cache line. Everything else a
//    take reads (`end_`, the slot vector, `drained_`) sits on a
//    read-mostly line that only reset(), the drain and poison() write, so
//    the RMW is the only transfer of a contended line per take;
//  * the drain probe reads `drained_`, not `next_`: loading the cursor
//    before the fetch_add would pull its line in shared and then again
//    exclusive. The take that hands out the last iteration (and any
//    straggler whose fetch_add lost that race) sets the flag, so a
//    drained pool answers without an RMW and `next_` stays bounded —
//    endgame stealing (every AID wait window hammers the pool until it
//    drains) never grows it by `want` per failed probe. poison() sets
//    the same flag. (ShardedWorkShare keeps a probe of its shard
//    words; src/sched/README.md, "The shard word", says why);
//  * per-thread removal counters — the success count the paper's overhead
//    metric is proportional to lives in one cache-line-padded slot per
//    thread (aggregated in removals()). Each slot has one writer, its tid,
//    so it is bumped with a relaxed load+store, not a locked RMW.
#pragma once

#include <atomic>
#include <vector>

#include "common/padded.h"
#include "common/types.h"
#include "sched/iteration_space.h"

namespace aid::sched {

/// Bump a per-thread stat slot. Only the slot's owning thread writes it,
/// so a relaxed load+store is exact and skips the locked RMW; concurrent
/// readers (stats aggregation) see a whole value, never a torn one.
inline void add_owned(std::atomic<i64>& slot, i64 by = 1) {
  slot.store(slot.load(std::memory_order_relaxed) + by,
             std::memory_order_relaxed);
}

class alignas(kCacheLineBytes) WorkShare {
 public:
  /// `nthreads` sizes the per-thread removal-counter slots; take()'s tid
  /// must stay below it, and one tid must not take from two threads at
  /// once (its slot has a single writer). A default-constructed pool has
  /// one slot (serial use in tests/benches).
  explicit WorkShare(int nthreads = 1)
      : removals_(static_cast<usize>(nthreads > 0 ? nthreads : 1)) {}

  /// Arm the pool for a loop of `count` canonical iterations.
  void reset(i64 count) {
    end_ = count;
    drained_.store(count <= 0, std::memory_order_relaxed);
    for (auto& slot : removals_) slot->store(0, std::memory_order_relaxed);
    next_.store(0, std::memory_order_release);
  }

  /// Atomically remove up to `want` iterations. Returns the removed range
  /// (possibly clamped, possibly empty when the pool is exhausted).
  /// This is the hot path: one read-mostly drain flag, then exactly one
  /// contended fetch_add; the removal count lands in the caller's own slot.
  IterRange take(i64 want, int tid = 0) {
    AID_DCHECK(want >= 1);
    // Always-on bound check: a mis-sized pool must fail loudly, not corrupt
    // the heap through the counter slot (predicted branch, ~free).
    AID_CHECK(tid >= 0 && static_cast<usize>(tid) < removals_.size());
    if (drained_.load(std::memory_order_relaxed)) return {end_, end_};
    const i64 begin = next_.fetch_add(want, std::memory_order_acq_rel);
    if (begin + want >= end_) drained_.store(true, std::memory_order_relaxed);
    if (begin >= end_) return {end_, end_};  // lost the drain race: no take
    add_owned(*removals_[static_cast<usize>(tid)]);
    const i64 stop = begin + want < end_ ? begin + want : end_;
    return {begin, stop};
  }

  /// Remove with a size that must be recomputed from the remaining count
  /// (guided scheduling). `want_of(remaining)` returns the desired chunk.
  template <typename WantFn>
  IterRange take_adaptive(WantFn&& want_of, int tid = 0) {
    AID_CHECK(tid >= 0 && static_cast<usize>(tid) < removals_.size());
    // Same drain flag as take(): under endgame stealing every wait window
    // re-probes the pool until it drains, and a drained pool must answer
    // without entering the CAS retry loop below (whose failure path
    // re-loads per attempt).
    if (drained_.load(std::memory_order_relaxed)) return {end_, end_};
    i64 cur = next_.load(std::memory_order_acquire);
    while (cur < end_) {
      const i64 want = want_of(end_ - cur);
      AID_DCHECK(want >= 1);
      const i64 stop = cur + want < end_ ? cur + want : end_;
      if (next_.compare_exchange_weak(cur, stop, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        if (stop == end_) drained_.store(true, std::memory_order_relaxed);
        add_owned(*removals_[static_cast<usize>(tid)]);
        return {cur, stop};
      }
    }
    drained_.store(true, std::memory_order_relaxed);
    return {end_, end_};
  }

  /// Cancellation poison: one release store of the drain flag, so every
  /// subsequent take answers without touching the cursor. An in-flight
  /// fetch_add that already passed the flag may still win one chunk —
  /// that is the documented cancel latency (one chunk), not a bug.
  /// reset() re-arms the pool for the next construct as usual.
  void poison() { drained_.store(true, std::memory_order_release); }

  /// Iterations not yet handed out (may be stale under concurrency; exact in
  /// the simulator). Never negative; 0 once drained or poisoned.
  [[nodiscard]] i64 remaining() const {
    if (drained_.load(std::memory_order_acquire)) return 0;
    const i64 n = next_.load(std::memory_order_acquire);
    return n < end_ ? end_ - n : 0;
  }

  [[nodiscard]] i64 end() const { return end_; }

  /// Number of *successful* pool removals (the paper's runtime overhead is
  /// proportional to this count); probes that found the pool drained are
  /// not removals. Aggregates the per-thread slots — a stats-path cost,
  /// not a hot-path one.
  [[nodiscard]] i64 removals() const {
    i64 sum = 0;
    for (const auto& slot : removals_)
      sum += slot->load(std::memory_order_relaxed);
    return sum;
  }

  /// One thread's successful-removal count (single padded load; the
  /// simulator polls this per scheduler call instead of the full sum).
  [[nodiscard]] i64 removals_of(int tid) const {
    AID_CHECK(tid >= 0 && static_cast<usize>(tid) < removals_.size());
    return removals_[static_cast<usize>(tid)]->load(
        std::memory_order_relaxed);
  }

 private:
  // Read-mostly line: read by every take, written by reset() and again
  // only when the pool drains or is poisoned.
  i64 end_ = 0;
  std::atomic<bool> drained_{true};
  std::vector<Padded<std::atomic<i64>>> removals_;  // one slot per thread
  // The cursor: the one contended RMW per take, alone on its line.
  alignas(kCacheLineBytes) std::atomic<i64> next_{0};
};

}  // namespace aid::sched
