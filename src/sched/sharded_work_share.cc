#include "sched/sharded_work_share.h"

#include <cmath>

namespace aid::sched {

ShardedWorkShare::ShardedWorkShare(ShardTopology topo, int nthreads,
                                   i64 grain)
    : topo_(std::move(topo)),
      nthreads_(nthreads > 0 ? nthreads : 1),
      grain_(grain > 0 ? grain : 1),
      single_(nthreads) {
  // An empty topology IS the single-shard configuration: nothing beyond
  // the embedded WorkShare is allocated, so a single-pool construct costs
  // exactly what it did before sharding existed (constructs are built per
  // loop — thousands of times in data-parallel apps).
  nshards_ = topo_.nshards();
  config_single_ = nshards_ < 2;
  single_mode_ = true;
  if (!config_single_) {
    // The take path indexes home_of_tid by tid without clamping: a
    // malformed topology fails here, once, instead of on every take.
    AID_CHECK_MSG(topo_.home_of_tid.size() == static_cast<usize>(nthreads_),
                  "ShardedWorkShare: topology needs one home per thread");
    for (const int home : topo_.home_of_tid)
      AID_CHECK_MSG(home >= 0 && home < nshards_,
                    "ShardedWorkShare: home shard out of range");
    // Sized construction + swap: Padded<atomic> is neither copyable nor
    // movable, so resize() (which requires MoveInsertable) is unusable.
    std::vector<Padded<std::atomic<u64>>> segs(
        static_cast<usize>(nshards_ * kSegsPerShard));
    segs_.swap(segs);
    std::vector<Padded<std::atomic<int>>> hints(static_cast<usize>(nshards_));
    hints_.swap(hints);
    std::vector<Counters> counters(static_cast<usize>(nthreads_));
    counters_.swap(counters);
    // No reset(0) needed: value-initialized segment words are pack(0, 0)
    // (drained) and a default WorkShare is drained too, so the unarmed
    // pool already answers every take with "empty". Callers arm with
    // reset(count) exactly once per construct.
  }
}

void ShardedWorkShare::reset(i64 count) { reset(count, topo_.capacity); }

void ShardedWorkShare::reset(i64 count, const std::vector<double>& weights) {
  AID_CHECK(count >= 0);
  count_ = count;
  // The packed-word no-carry invariant: worst-case cursor overshoot is one
  // capped want per thread past the bound, so the low half stays below
  // 2^32 only while count + nthreads * kFetchAddWantMax < 2^32. Loops (or
  // teams) too large for that fall back to the classic single pool.
  const bool fits_packed =
      count < kPackedCountLimit &&
      count + static_cast<i64>(nthreads_) * kFetchAddWantMax <
          (i64{1} << 32);
  single_mode_ = config_single_ || !fits_packed;
  if (single_mode_) {
    single_.reset(count);
    return;
  }
  for (auto& c : counters_) {
    c.local.store(0, std::memory_order_relaxed);
    c.remote.store(0, std::memory_order_relaxed);
    c.rebalances.store(0, std::memory_order_relaxed);
    c.rebalanced_iters.store(0, std::memory_order_relaxed);
  }
  migrating_.store(0, std::memory_order_relaxed);
  poisoned_.store(false, std::memory_order_relaxed);
  AID_CHECK(static_cast<int>(weights.size()) == nshards_);
  double wsum = 0.0;
  for (const double w : weights) wsum += w > 0.0 ? w : 0.0;
  // Contiguous proportional split: shard s gets [B_s, B_{s+1}) with the
  // boundaries at the cumulative weight fractions, rounded to the nearest
  // multiple of the grain; zero/degenerate weights fall back to an even
  // split.
  const double grain = static_cast<double>(grain_);
  i64 prev = 0;
  double acc = 0.0;
  for (int s = 0; s < nshards_; ++s) {
    acc += weights[static_cast<usize>(s)] > 0.0
               ? weights[static_cast<usize>(s)]
               : 0.0;
    const double share = wsum > 0.0 ? acc / wsum
                                    : static_cast<double>(s + 1) / nshards_;
    i64 bound = s + 1 == nshards_
                    ? count
                    : std::llround(static_cast<double>(count) * share /
                                   grain) *
                          grain_;
    if (bound < prev) bound = prev;
    if (bound > count) bound = count;
    seg(s, 0).store(pack(prev, bound), std::memory_order_release);
    for (int i = 1; i < kSegsPerShard; ++i)
      seg(s, i).store(pack(0, 0), std::memory_order_release);
    hint_of(s).store(0, std::memory_order_relaxed);
    prev = bound;
  }
}

IterRange ShardedWorkShare::take_stealing(i64 want, int tid, int home) {
  if (poisoned_.load(std::memory_order_relaxed)) return {count_, count_};
  for (int k = 1; k < nshards_; ++k) {
    const int s = (home + k) % nshards_;
    const i64 avail = remaining_of_shard(s);
    if (avail <= 0) continue;
    // Fat victim: move half of its remainder home in ONE cross-shard CAS,
    // then resume home-local removals — the bulk-migration case that keeps
    // cross-shard traffic per-block instead of per-chunk.
    const i64 bulk_min =
        want * 4 > kBulkStealMin ? want * 4 : kBulkStealMin;
    if (avail >= bulk_min &&
        migrate(s, home, /*want_block=*/avail / 2, /*min_block=*/want,
                tid)) {
      const IterRange r = take_from_shard(home, want);
      if (!r.empty()) {
        note_removal(tid, /*local=*/true);
        return r;
      }
      continue;  // peers raced the migrated block away: keep scanning
    }
    // Thin victim (or a concurrent migration holds the token): endgame
    // chunk steal, one remote RMW.
    const IterRange r = take_from_shard(s, want);
    if (!r.empty()) {
      note_removal(tid, /*local=*/false);
      return r;
    }
  }
  return {count_, count_};
}

bool ShardedWorkShare::install(int to, i64 begin, i64 end) {
  for (int i = 0; i < kSegsPerShard; ++i) {
    std::atomic<u64>& word = seg(to, i);
    u64 w = word.load(std::memory_order_acquire);
    for (;;) {
      if (unpack_next(w) < unpack_end(w)) break;  // live slot: try the next
      if (word.compare_exchange_weak(w, pack(begin, end),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire))
        return true;
      // Failed CAS: a straggler's fetch_add bumped the drained cursor
      // (bounded — probes stop overshoot); retry with the reloaded word.
    }
  }
  return false;
}

bool ShardedWorkShare::migrate(int from, int to, i64 want_block,
                               i64 min_block, int tid) {
  if (min_block < 1) min_block = 1;
  // Single-writer migration: contenders fall back to chunk steals rather
  // than wait, so no take ever blocks here. Holding the token is what
  // makes the merge-back below sound — nobody else can move any end.
  if (migrating_.exchange(1, std::memory_order_acquire) != 0) return false;

  bool moved = false;
  int victim = -1;
  i64 best = 0;
  for (int i = 0; i < kSegsPerShard; ++i) {
    const u64 w = seg(from, i).load(std::memory_order_acquire);
    const i64 a = unpack_end(w) - unpack_next(w);
    if (a > best) {
      best = a;
      victim = i;
    }
  }
  if (victim >= 0) {
    std::atomic<u64>& word = seg(from, victim);
    u64 w = word.load(std::memory_order_acquire);
    for (;;) {
      const i64 n = unpack_next(w);
      const i64 e = unpack_end(w);
      // The cut point: at most want_block below the end, the donor keeping
      // at least min_block, rounded up onto the grain (the donor only
      // grows) so the donor's chunks and the block's stay whole.
      i64 cut = e - want_block > n + min_block ? e - want_block
                                               : n + min_block;
      cut = (cut + grain_ - 1) / grain_ * grain_;
      if (e - cut < min_block) break;
      if (word.compare_exchange_weak(w, pack(n, cut),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        // The cut linearized at a state where next == n <= cut, and
        // claims are prefixes [0, next): no outstanding claim reaches
        // into [cut, e) — we own the block exclusively.
        if (install(to, cut, e)) {
          Counters& c = counters_[static_cast<usize>(tid)];
          add_owned(c.rebalances);
          add_owned(c.rebalanced_iters, e - cut);
          moved = true;
        } else {
          // Every slot of `to` is live: merge the block back into the
          // donor. Its end is still `cut` (we hold migrating_), so the
          // block stays adjacent; a cursor that overshot past the cut
          // represents discarded (empty) claims, so winding it back to
          // the cut re-exposes only iterations nobody was handed.
          u64 cur = word.load(std::memory_order_relaxed);
          for (;;) {
            AID_DCHECK(unpack_end(cur) == cut);
            const i64 nc = unpack_next(cur);
            const i64 new_next = nc < cut ? nc : cut;
            if (word.compare_exchange_weak(cur, pack(new_next, e),
                                           std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
              break;
          }
        }
        break;
      }
    }
  }
  migrating_.store(0, std::memory_order_release);
  return moved;
}

}  // namespace aid::sched
