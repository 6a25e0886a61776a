#include "sched/sharded_work_share.h"

#include <cmath>

namespace aid::sched {

ShardedWorkShare::ShardedWorkShare(const platform::TeamLayout& layout,
                                   bool sharded, i64 grain)
    : nthreads_(layout.nthreads()),
      grain_(grain > 0 ? grain : 1),
      config_single_(!sharded || layout.nthreads() < 2),
      single_(layout.nthreads()) {
  // The single-shard configuration allocates nothing beyond the embedded
  // WorkShare, so a single-pool construct costs exactly what it did before
  // sharding existed (constructs are built per loop — thousands of times
  // in data-parallel apps).
  if (config_single_) return;
  capacity_.resize(static_cast<usize>(nthreads_));
  for (int tid = 0; tid < nthreads_; ++tid)
    capacity_[static_cast<usize>(tid)] = layout.speed_of(tid);
  // Sized construction + swap: a Shard holds atomics, so it is neither
  // copyable nor movable, and resize() (which requires MoveInsertable) is
  // unusable.
  std::vector<Shard> shards(static_cast<usize>(nthreads_));
  shards_.swap(shards);
  // No reset(0) needed: value-initialized words are pack(0, 0) (drained)
  // and a default WorkShare is drained too, so the unarmed pool already
  // answers every take with "empty". Callers arm with reset(count)
  // exactly once per construct.
}

void ShardedWorkShare::reset(i64 count) { reset(count, capacity_); }

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
  for (auto& c : shards_) {
    c.local.store(0, std::memory_order_relaxed);
    c.remote.store(0, std::memory_order_relaxed);
    c.rebalances.store(0, std::memory_order_relaxed);
  }
  poisoned_.store(false, std::memory_order_relaxed);
  AID_CHECK(static_cast<int>(weights.size()) == nthreads_);
  double wsum = 0.0;
  for (const double w : weights) wsum += w > 0.0 ? w : 0.0;
  // Contiguous proportional split: shard s gets [B_s, B_{s+1}) with the
  // boundaries at the cumulative weight fractions, rounded to the nearest
  // multiple of the grain; zero/degenerate weights fall back to an even
  // split.
  const double grain = static_cast<double>(grain_);
  i64 prev = 0;
  double acc = 0.0;
  for (int s = 0; s < nthreads_; ++s) {
    acc += weights[static_cast<usize>(s)] > 0.0
               ? weights[static_cast<usize>(s)]
               : 0.0;
    const double share = wsum > 0.0 ? acc / wsum
                                    : static_cast<double>(s + 1) / nthreads_;
    i64 bound = s + 1 == nthreads_
                    ? count
                    : std::llround(static_cast<double>(count) * share /
                                   grain) *
                          grain_;
    if (bound < prev) bound = prev;
    if (bound > count) bound = count;
    word(s).store(pack(prev, bound), std::memory_order_release);
    prev = bound;
  }
}

IterRange ShardedWorkShare::take_stealing(i64 want, int tid) {
  if (poisoned_.load(std::memory_order_relaxed)) return {count_, count_};
  for (int k = 1; k < nthreads_; ++k) {
    const int s = (tid + k) % nthreads_;
    const i64 avail = remaining_of_shard(s);
    if (avail <= 0) continue;
    // Fat victim: move half of its remainder home in ONE cross-shard CAS,
    // then resume home-local removals — the bulk-migration case that keeps
    // cross-shard traffic per-block instead of per-chunk.
    const i64 bulk_min =
        want * 4 > kBulkStealMin ? want * 4 : kBulkStealMin;
    if (avail >= bulk_min &&
        migrate(s, tid, /*want_block=*/avail / 2, /*min_block=*/want)) {
      const IterRange r = take_from_shard(tid, want);
      if (!r.empty()) {
        note_removal(tid, /*local=*/true);
        return r;
      }
      continue;  // thieves raced the migrated block away: keep scanning
    }
    // Thin victim (or the cut lost its race): endgame chunk steal, one
    // remote RMW.
    const IterRange r = take_from_shard(s, want);
    if (!r.empty()) {
      note_removal(tid, /*local=*/false);
      return r;
    }
  }
  return {count_, count_};
}

void ShardedWorkShare::install(int tid, i64 begin, i64 end) {
  std::atomic<u64>& home = word(tid);
  u64 w = home.load(std::memory_order_acquire);
  for (;;) {
    // tid's own take found this word drained, and only tid revives it.
    AID_CHECK(unpack_next(w) >= unpack_end(w));
    if (home.compare_exchange_weak(w, pack(begin, end),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire))
      return;
    // Failed CAS: a straggler's fetch_add bumped the drained cursor
    // (bounded — probes stop overshoot); retry with the reloaded word.
  }
}

bool ShardedWorkShare::migrate(int from, int tid, i64 want_block,
                               i64 min_block) {
  std::atomic<u64>& donor = word(from);
  u64 w = donor.load(std::memory_order_acquire);
  for (;;) {
    const i64 n = unpack_next(w);
    const i64 e = unpack_end(w);
    // The cut point: at most want_block below the end, the donor keeping
    // at least min_block, rounded up onto the grain (the donor only grows)
    // so the donor's chunks and the block's stay whole.
    i64 cut = e - want_block > n + min_block ? e - want_block : n + min_block;
    cut = (cut + grain_ - 1) / grain_ * grain_;
    if (e - cut < min_block) return false;
    if (donor.compare_exchange_weak(w, pack(n, cut),
                                    std::memory_order_acq_rel,
                                    std::memory_order_acquire)) {
      // The cut linearized at a state where next == n <= cut, and claims
      // are prefixes [0, next): no outstanding claim reaches into
      // [cut, e) — we own the block exclusively.
      install(tid, cut, e);
      add_owned(shards_[static_cast<usize>(tid)].rebalances);
      return true;
    }
  }
}

}  // namespace aid::sched
