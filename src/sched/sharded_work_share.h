// Sharded iteration pool.
//
// The single fetch-add WorkShare (work_share.h) makes every removal an RMW
// on one cache line shared by the whole team; at high thread counts the
// runtime overhead the paper measures (Sec. 4.2) is dominated by that
// coherence traffic, not by useful removals. ShardedWorkShare gives every
// team thread a shard of its own: shard s is thread s, its state is one
// packed word on a cache line it shares only with thread s's stat slots,
// and only thieves write that word besides its owner. The common-case
// removal is an RMW on the taker's own line; cross-shard traffic happens
// per *steal* or per *bulk migration* — not per chunk. Takes are sized by
// the caller (dynamic's chunk, AID's blocks); the schedules that size a
// chunk from the loop's remainder (guided, weighted factoring) hold a
// plain WorkShare instead, where the remainder is the whole loop's.
//
// Mechanics (full design note + memory-ordering argument in
// src/sched/README.md):
//
//  * A shard's word packs {next:32 | end:32}. A removal is a fetch_add of
//    `want` on the low half — the same instruction count as WorkShare —
//    and because the returned word carries both cursor and bound, the
//    clamp is computed from an atomic snapshot: no torn {next, end} pair
//    can ever be observed. Takes larger than kFetchAddWantMax go through a
//    CAS so the low half cannot carry into the end bits.
//  * take(want, tid): fetch_add on word `tid`; when it drains, scan the
//    other shards — cutting HALF of a fat victim's remainder into the
//    caller's word (bulk migration) or, for thin victims, removing a
//    single chunk remotely (steal).
//  * Grain: every shard boundary reset() draws and every migration cut
//    point sits on a multiple of the pool's grain (dynamic's chunk, else
//    1), so fixed-size takes of one grain stay whole: only the chunk that
//    holds the loop's last iteration can come out short, as OpenMP's
//    dynamic(c) requires.
//  * Exactly-once: every ownership transfer (take, cut, install) is a
//    single CAS/fetch_add on one word, so transfers linearize per word; a
//    cut [c, e) can only succeed when the same atomic snapshot shows
//    next <= c, and takers advance next only — the cut block can never
//    overlap a claim. Only a word's owner installs into it, after its own
//    take found it drained, and nothing else revives a drained word: an
//    install cannot fail (README has the full argument).
//
// Fallback: an unsharded pool, a one-thread layout or a loop too large for
// the 32-bit packing delegates to a plain WorkShare — bit-for-bit the
// classic single-pool behavior.
#pragma once

#include <atomic>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "platform/team_layout.h"
#include "sched/iteration_space.h"
#include "sched/work_share.h"

namespace aid::sched {

class ShardedWorkShare {
 public:
  /// Loops with count >= this fall back to the single-pool path (the
  /// packed halves are 32-bit).
  static constexpr i64 kPackedCountLimit = i64{1} << 31;
  /// Takes larger than this use CAS instead of fetch_add so worst-case
  /// overshoot (one want per thread between probe and drain) can never
  /// carry into the end bits: count + threads * kFetchAddWantMax < 2^32.
  static constexpr i64 kFetchAddWantMax = i64{1} << 24;
  /// Minimum remainder a foreign shard must hold before the steal path
  /// bulk-migrates instead of removing one chunk remotely.
  static constexpr i64 kBulkStealMin = 64;

  /// `sharded` arms one shard per thread of `layout`, with the thread's
  /// nominal speed as its capacity; unsharded, or on a one-thread layout,
  /// the pool is the classic single WorkShare with zero extra allocation.
  /// The layout's thread count sizes the per-thread counter slots, as in
  /// WorkShare. `grain` aligns shard boundaries and migration cuts (see
  /// above).
  ShardedWorkShare(const platform::TeamLayout& layout, bool sharded,
                   i64 grain = 1);

  /// Arm for a loop of `count` canonical iterations, split across shards
  /// proportional to their nominal capacities (boundaries rounded to the
  /// nearest multiple of the grain).
  void reset(i64 count);
  /// Arm with explicit per-shard weights (one per thread; AID-static with
  /// an offline SF passes each thread's SF).
  void reset(i64 count, const std::vector<double>& weights);

  /// Remove up to `want` iterations, preferring `tid`'s own shard.
  /// Returns an empty range only after every shard looked drained.
  IterRange take(i64 want, int tid) {
    AID_DCHECK(want >= 1);
    if (single_mode_) {
      return single_.take(want, tid);
    }
    if (poisoned_.load(std::memory_order_relaxed)) return {count_, count_};
    AID_CHECK(tid >= 0 && tid < nthreads_);
    IterRange r = take_from_shard(tid, want);
    if (!r.empty()) {
      note_removal(tid, /*local=*/true);
      return r;
    }
    return take_stealing(want, tid);
  }

  /// Cancellation poison. Sharded mode uses a FLAG rather than draining
  /// the words: a drain store could land between a thief's cut and its
  /// install, which would then revive the thief's drained word. One
  /// relaxed flag load per take is the whole fast-path cost; cancel
  /// latency stays one chunk.
  void poison() {
    if (single_mode_) {
      single_.poison();
      return;
    }
    poisoned_.store(true, std::memory_order_release);
  }

  /// Iterations not yet handed out (may be stale under concurrency).
  [[nodiscard]] i64 remaining() const {
    if (single_mode_) return single_.remaining();
    i64 sum = 0;
    for (int s = 0; s < nthreads_; ++s) sum += remaining_of_shard(s);
    return sum;
  }

  /// Iterations left in shard `s` (thread s's own; one load).
  [[nodiscard]] i64 remaining_of_shard(int s) const {
    if (single_mode_) return single_.remaining();
    const u64 w = word(s).load(std::memory_order_acquire);
    const i64 n = unpack_next(w);
    const i64 e = unpack_end(w);
    return n < e ? e - n : 0;
  }

  [[nodiscard]] i64 end() const { return count_; }

  /// Successful removals (all shards; parity with WorkShare::removals()).
  [[nodiscard]] i64 removals() const {
    if (single_mode_) return single_.removals();
    i64 sum = 0;
    for (const auto& c : shards_)
      sum += c.local.load(std::memory_order_relaxed) +
             c.remote.load(std::memory_order_relaxed);
    return sum;
  }

  [[nodiscard]] i64 removals_of(int tid) const {
    if (single_mode_) return single_.removals_of(tid);
    AID_CHECK(tid >= 0 && tid < nthreads_);
    const Shard& c = shards_[static_cast<usize>(tid)];
    return c.local.load(std::memory_order_relaxed) +
           c.remote.load(std::memory_order_relaxed);
  }

  /// Removals served by the taker's own shard. In single-shard mode every
  /// removal is "home" by definition (there is no cross-thread line).
  [[nodiscard]] i64 local_removals() const {
    if (single_mode_) return single_.removals();
    return sum_counter(&Shard::local);
  }
  /// Removals served by a foreign shard (chunk steals).
  [[nodiscard]] i64 remote_removals() const {
    return single_mode_ ? 0 : sum_counter(&Shard::remote);
  }
  /// Contiguous blocks bulk-migrated between shards by the steal path.
  [[nodiscard]] i64 rebalances() const {
    return single_mode_ ? 0 : sum_counter(&Shard::rebalances);
  }

 private:
  /// Thread s's line: shard s's packed word and thread s's stat slots.
  /// Thread s writes the word on every take anyway, so its slots cost the
  /// fast path no second line. Thieves cut and steal from the word only;
  /// only thread s writes the slots (add_owned: no locked RMW).
  struct alignas(kCacheLineBytes) Shard {
    std::atomic<u64> word{0};
    std::atomic<i64> local{0};
    std::atomic<i64> remote{0};
    std::atomic<i64> rebalances{0};
  };

  static constexpr u64 kNextMask = 0xffffffffULL;
  [[nodiscard]] static u64 pack(i64 next, i64 end) {
    return (static_cast<u64>(end) << 32) |
           (static_cast<u64>(next) & kNextMask);
  }
  [[nodiscard]] static i64 unpack_next(u64 w) {
    return static_cast<i64>(w & kNextMask);
  }
  [[nodiscard]] static i64 unpack_end(u64 w) {
    return static_cast<i64>(w >> 32);
  }

  [[nodiscard]] std::atomic<u64>& word(int shard) {
    return shards_[static_cast<usize>(shard)].word;
  }
  [[nodiscard]] const std::atomic<u64>& word(int shard) const {
    return shards_[static_cast<usize>(shard)].word;
  }

  void note_removal(int tid, bool local) {
    Shard& c = shards_[static_cast<usize>(tid)];
    add_owned(local ? c.local : c.remote);
  }

  /// One shard's take: a read-only drain probe, then one fetch_add (or
  /// CAS for oversized wants). Empty when the word looked drained.
  IterRange take_from_shard(int s, i64 want) {
    std::atomic<u64>& shard = word(s);
    u64 w = shard.load(std::memory_order_acquire);
    i64 n = unpack_next(w);
    i64 e = unpack_end(w);
    if (n >= e) return {count_, count_};  // drained: stay read-only
    if (want <= kFetchAddWantMax) {
      const u64 prev =
          shard.fetch_add(static_cast<u64>(want), std::memory_order_acq_rel);
      n = unpack_next(prev);
      e = unpack_end(prev);
      if (n >= e) return {count_, count_};  // lost the drain race
      return {n, n + want < e ? n + want : e};
    }
    // Oversized want (AID block takes): CAS so the low half can never
    // carry into the end bits.
    for (;;) {
      const i64 stop = n + want < e ? n + want : e;
      if (shard.compare_exchange_weak(w, pack(stop, e),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
        return {n, stop};
      n = unpack_next(w);
      e = unpack_end(w);
      if (n >= e) return {count_, count_};
    }
  }

  /// Cold path of take(): the caller's word drained — bulk-migrate from a
  /// fat foreign shard or chunk-steal from a thin one.
  IterRange take_stealing(i64 want, int tid);

  /// Cut up to `want_block` iterations (at least `min_block`, leaving the
  /// donor at least `min_block`, the cut on a multiple of the grain) off
  /// the top of shard `from` and install them in `tid`'s drained word.
  bool migrate(int from, int tid, i64 want_block, i64 min_block);

  /// Arm `tid`'s drained word with [begin, end). Only `tid` calls it.
  void install(int tid, i64 begin, i64 end);

  [[nodiscard]] i64 sum_counter(std::atomic<i64> Shard::* member) const {
    i64 sum = 0;
    for (const auto& c : shards_)
      sum += (c.*member).load(std::memory_order_relaxed);
    return sum;
  }

  int nthreads_ = 1;
  i64 grain_ = 1;              ///< boundary/cut alignment (dynamic's chunk)
  bool config_single_ = true;  ///< unsharded or one thread: always delegate
  bool single_mode_ = true;    ///< set per reset(): config or oversized loop
  i64 count_ = 0;
  WorkShare single_;  ///< the classic pool, used whenever single_mode_
  std::vector<double> capacity_;  ///< per shard: its thread's nominal speed
  std::vector<Shard> shards_;     ///< one per thread
  /// Cancellation poison flag (sharded mode only; see poison()). Read by
  /// every take, written once per construct: on a line of its own.
  alignas(kCacheLineBytes) std::atomic<bool> poisoned_{false};
};

}  // namespace aid::sched
