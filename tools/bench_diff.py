#!/usr/bin/env python3
"""Diff BENCH_*.json medians against a committed snapshot.

The bench binaries emit BENCH_<name>.json (see bench/bench_util.h): an
array of {bench, config, metric, median, p95, runs} records. The repo
commits the previous PR's BENCH_micro_forkjoin.json at the root as the
perf-trajectory baseline (ROADMAP "fork/join perf trajectory"); this tool
compares a freshly produced file against it and prints a per-(config,
metric) median delta report.

Only latency metrics (ending in "_ns") participate in regression
accounting — up is bad for those. The shard-counter metrics emitted by
the `shard=` config family (local_share_pct, rebalances_per_run; see
src/sched/README.md) are reported in their own section: they describe the
local-vs-remote removal mix of the sharded work-share pool, where *up* in
local share is good.

By default the report is informational and always exits 0 — fork/join
latencies on shared/oversubscribed CI hosts are too noisy to gate merges
on (see src/rt/README.md for the measurement caveats). Two gating modes
exist for local runs:

  --strict            exit 1 when any regression exceeds --threshold
  --fail-above PCT    exit 1 when any regression exceeds PCT (implies
                      gating without changing the report threshold)

--exempt takes a comma-separated list of config substrings (usually
family keys like "shard=") that should not gate at the global
--fail-above limit. A bare entry exempts the family outright; an entry
with a colon suffix, "chain=:40", keeps the family gated but at its own
looser percentage — for families that are legitimate to track yet too
host-sensitive for the tight global limit (nowait chains wobble more
than plain fork/join on shared CI hosts).

Usage:
  tools/bench_diff.py                      # baseline ./BENCH_micro_forkjoin.json
                                           # current ./build/BENCH_micro_forkjoin.json
  tools/bench_diff.py --baseline A.json --current B.json --threshold 25
  tools/bench_diff.py --strict             # non-zero exit on regressions
  tools/bench_diff.py --fail-above 30      # gate only on >30% regressions
  tools/bench_diff.py --fail-above 25 --exempt 'shard=,chain=:40'
                                           # shard= never gates; chain=
                                           # gates at 40% instead of 25%

Baselines are keyed by *runner class*: bench files carry a snapshot
record (bench_util.h / harness/sysinfo.h) whose host_id hashes the
hardware-visible identity (cpu model, core count, governor). When the
baseline's host_id and the current file's host_id are both known and
differ — a laptop capture diffed against a CI baseline, or vice versa —
gating demotes to report-only: the deltas print, but --strict and
--fail-above never fail the run. Files without a snapshot (pre-snapshot
baselines) gate as before.

A missing file skips the comparison with exit 0, with one exception: under
--strict or --fail-above a missing *current* file exits 1, so a gate whose
bench wrote nothing cannot pass without measuring anything.
"""

import argparse
import json
import os
import sys

# Metrics that are not latencies: reported separately, never counted as
# regressions/improvements.
COUNTER_METRICS = ("local_share_pct", "rebalances_per_run")


def load(path):
    """Return ({(config, metric): record}, snapshot_or_None) for one
    BENCH_*.json file.

    Malformed records (missing config/metric/median — e.g. a truncated
    write from an interrupted bench run) are skipped with a warning
    instead of raising a KeyError later in the report."""
    with open(path, encoding="utf-8") as f:
        records = json.load(f)
    table = {}
    snapshot = None
    skipped = 0
    for r in records:
        if "snapshot" in r:
            # Provenance record (bench_util.h): metadata, not a series.
            snapshot = r["snapshot"]
            continue
        if not all(k in r for k in ("config", "metric", "median")):
            skipped += 1
            continue
        table[(r["config"], r["metric"])] = r
    if skipped:
        print(f"bench_diff: warning — {skipped} malformed record(s) "
              f"skipped in {path}")
    return table, snapshot


def family_of(config):
    """A config's *family*: the set of key names in its /-separated
    key=value segments (e.g. "threads=4/gomp_chain=8/count=256" ->
    "threads/gomp_chain/count"). New bench families (a whole new config
    shape, like gomp_chain=) appear in only one snapshot on their first
    run; the report calls those out as added/removed instead of drowning
    them in per-series rows."""
    return "/".join(seg.split("=", 1)[0] for seg in config.split("/")
                    if "=" in seg)


def print_family_changes(baseline, current):
    base_families = {family_of(c) for c, _ in baseline}
    cur_families = {family_of(c) for c, _ in current}
    for fam in sorted(cur_families - base_families):
        n = sum(1 for c, _ in current if family_of(c) == fam)
        print(f"family added (not in baseline): {fam}  ({n} series — "
              f"excluded from regression accounting)")
    for fam in sorted(base_families - cur_families):
        n = sum(1 for c, _ in baseline if family_of(c) == fam)
        print(f"family removed (baseline only): {fam}  ({n} series)")


def is_latency(metric):
    return metric.endswith("_ns")


def print_counter_section(keys, baseline, current):
    """The shard-counter columns: home-local removal share and bulk
    rebalances per drain, per config (current vs committed baseline)."""
    counters = sorted({c for c, m in keys if m in COUNTER_METRICS})
    if not counters:
        return
    width = max(len(c) for c in counters)
    print("\nshard counters (local removals %, bulk rebalances/run):")
    print(f"{'config'.ljust(width)}  {'local% base':>11}  {'local% cur':>10}"
          f"  {'rebal base':>10}  {'rebal cur':>9}")
    for config in counters:
        def med(table, metric):
            rec = table.get((config, metric))
            return f"{rec['median']:.0f}" if rec is not None else "-"
        print(f"{config.ljust(width)}"
              f"  {med(baseline, 'local_share_pct'):>11}"
              f"  {med(current, 'local_share_pct'):>10}"
              f"  {med(baseline, 'rebalances_per_run'):>10}"
              f"  {med(current, 'rebalances_per_run'):>9}")


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    parser = argparse.ArgumentParser(
        description="Diff bench JSON medians against a committed snapshot.")
    parser.add_argument(
        "--baseline",
        default=os.path.join(repo_root, "BENCH_micro_forkjoin.json"),
        help="committed snapshot (default: repo-root BENCH_micro_forkjoin.json)")
    parser.add_argument(
        "--current",
        default=os.path.join(repo_root, "build", "BENCH_micro_forkjoin.json"),
        help="freshly produced file (default: build/BENCH_micro_forkjoin.json)")
    parser.add_argument(
        "--threshold", type=float, default=10.0,
        help="flag |delta| beyond this percentage (default: 10)")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any regression exceeds the threshold")
    parser.add_argument(
        "--fail-above", type=float, default=None, metavar="PCT",
        help="exit 1 if any latency regression exceeds PCT percent "
             "(CI gates the default leg with this; see .github/workflows)")
    parser.add_argument(
        "--min-abs-ns", type=float, default=0.0, metavar="NS",
        help="absolute floor for gating: a latency series whose baseline "
             "median is below NS (or non-positive) is reported but never "
             "gates — percentage deltas against near-zero or negative "
             "baselines (signed overhead metrics like ingress_overhead_ns) "
             "are noise, not signal")
    parser.add_argument(
        "--exempt", action="append", default=[], metavar="LIST",
        help="comma-separated config substrings that do not gate at the "
             "global --fail-above limit; SUBSTR exempts outright, "
             "SUBSTR:PCT gates that family at its own PCT instead "
             "(repeatable; CI exempts the host-sensitive shard= family "
             "and loosens the chain= families)")
    args = parser.parse_args()

    # {substring: None (fully exempt) | float (family-specific gate %)}.
    exemptions = {}
    for entry in args.exempt:
        for item in entry.split(","):
            item = item.strip()
            if not item:
                continue
            if ":" in item:
                sub, pct = item.rsplit(":", 1)
                try:
                    exemptions[sub] = float(pct)
                except ValueError:
                    parser.error(f"--exempt: bad threshold in {item!r}")
            else:
                exemptions[item] = None

    gating_requested = args.fail_above is not None or args.strict
    for path, what in ((args.current, "current"), (args.baseline, "baseline")):
        if not os.path.exists(path):
            print(f"bench_diff: {what} file not found: {path}")
            if what == "current" and gating_requested:
                print("bench_diff: FAIL — gating requested but there is no "
                      "current file to gate")
                return 1
            print("bench_diff: nothing to compare — skipping (exit 0)")
            return 0

    baseline, base_snap = load(args.baseline)
    current, cur_snap = load(args.current)

    # Runner-class keying: hard gates only make sense when both files come
    # from the same host class. A mismatch (or one side missing its
    # snapshot while the other has one) demotes gating to report-only —
    # never a hard fail. Two snapshot-less files keep the legacy behavior.
    base_host = (base_snap or {}).get("host_id")
    cur_host = (cur_snap or {}).get("host_id")
    host_demoted = None
    if base_host is not None and cur_host is not None:
        if base_host != cur_host:
            host_demoted = (f"baseline host_id {base_host} != current "
                            f"host_id {cur_host}")
    elif base_host is not None or cur_host is not None:
        which = "current" if base_host is not None else "baseline"
        host_demoted = f"{which} file has no snapshot/host_id"
    if host_demoted:
        print(f"bench_diff: NOTE — {host_demoted}; different runner class, "
              f"gating demoted to report-only\n")

    keys = sorted(set(baseline) | set(current))
    latency_keys = [k for k in keys if is_latency(k[1])]
    regressions = improvements = 0
    worst_regression = 0.0
    family_failures = []  # (config, metric, delta, family limit)
    width = max((len(f"{c} {m}") for c, m in latency_keys), default=20)

    print(f"bench_diff: {os.path.relpath(args.current, repo_root)} vs "
          f"{os.path.relpath(args.baseline, repo_root)} "
          f"(threshold {args.threshold:.0f}%)\n")
    print(f"{'config metric'.ljust(width)}  {'base med':>12}  "
          f"{'cur med':>12}  {'delta':>8}")
    for key in latency_keys:
        label = f"{key[0]} {key[1]}".ljust(width)
        base = baseline.get(key)
        cur = current.get(key)
        matched = [sub for sub in exemptions if sub in key[0]]
        # Full exemption wins over a family threshold when both match.
        exempt = any(exemptions[sub] is None for sub in matched)
        family_limits = [exemptions[sub] for sub in matched
                         if exemptions[sub] is not None]
        if base is None:
            print(f"{label}  {'-':>12}  {cur['median']:>12.0f}      new")
            continue
        if cur is None:
            print(f"{label}  {base['median']:>12.0f}  {'-':>12}  removed")
            continue
        if base["median"] <= 0 or abs(base["median"]) < args.min_abs_ns:
            why = ("below floor" if base["median"] > 0
                   else "non-positive base")
            print(f"{label}  {base['median']:>12.0f}  {cur['median']:>12.0f}  "
                  f"{'-':>8}  ({why} — not gated)")
            continue
        delta = 100.0 * (cur["median"] - base["median"]) / base["median"]
        if not exempt and not family_limits:
            worst_regression = max(worst_regression, delta)
        flag = "  (exempt)" if exempt else ""
        if not exempt and family_limits:
            limit = min(family_limits)
            flag = f"  (gate {limit:.0f}%)"
            if delta > limit:
                family_failures.append((key[0], key[1], delta, limit))
        if delta >= args.threshold:
            flag += "  << regression"  # latency metrics: up is bad
            if not exempt:
                regressions += 1
        elif delta <= -args.threshold:
            flag += "  improvement"
            if not exempt:
                improvements += 1
        print(f"{label}  {base['median']:>12.0f}  {cur['median']:>12.0f}  "
              f"{delta:>+7.1f}%{flag}")

    print()
    print_family_changes(baseline, current)
    print_counter_section(keys, baseline, current)

    print(f"\nbench_diff: {regressions} regression(s), "
          f"{improvements} improvement(s) beyond ±{args.threshold:.0f}% "
          f"across {len(latency_keys)} latency series")
    gating = gating_requested and not host_demoted
    if host_demoted and gating_requested:
        print(f"bench_diff: report-only ({host_demoted})")
    if gating and family_failures:
        for config, metric, delta, limit in family_failures:
            print(f"bench_diff: FAIL — {config} {metric} {delta:+.1f}% "
                  f"exceeds its family gate of {limit:.0f}%")
        return 1
    if gating and args.fail_above is not None and \
            worst_regression > args.fail_above:
        print(f"bench_diff: FAIL — worst regression {worst_regression:+.1f}% "
              f"exceeds --fail-above {args.fail_above:.0f}%")
        return 1
    if gating and args.strict and regressions:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
