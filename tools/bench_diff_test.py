#!/usr/bin/env python3
"""Tests for the bench_diff gate semantics.

The contract under test (registered with ctest as bench_diff_test):

  1. A family that exists only in the NEW snapshot — the first run of a
     freshly added bench, like ingress= — is reported as "family added"
     and never trips --fail-above, even when gating is on.
  2. A new series inside an EXISTING family is reported as "new" and does
     not gate either.
  3. A genuine latency regression beyond --fail-above still fails — the
     added-family leniency must not swallow real regressions.
  4. A family present only in the BASELINE is called out as removed,
     without failing the gate.
  5. Host-id keying: gating demotes to report-only when the two files'
     snapshot host_ids differ (or only one side has one) — a wrong-host
     baseline must never hard-fail a run — while matching host_ids keep
     the gate armed.
  6. A gate cannot pass without measuring: under --fail-above or --strict
     a missing current file exits 1 and names it, while a missing baseline,
     or a missing file without a gating flag, skips with exit 0.

Usage: bench_diff_test.py [path/to/bench_diff.py]
"""

import json
import os
import subprocess
import sys
import tempfile

BENCH_DIFF = (sys.argv[1] if len(sys.argv) > 1 else
              os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "bench_diff.py"))


def record(config, metric, median):
    return {"bench": "t", "config": config, "metric": metric,
            "median": median, "p95": median * 1.2, "p99": median * 1.5,
            "runs": 5}


def snapshot_record(host_id):
    return {"bench": "t", "snapshot": {
        "nproc": 4, "cpu_model": "test-cpu", "governor": "performance",
        "compiler": "test", "git_sha": "deadbeef", "host_id": host_id,
        "env": {}}}


def run_paths(base_path, cur_path, extra_args=()):
    proc = subprocess.run(
        [sys.executable, BENCH_DIFF, "--baseline", base_path,
         "--current", cur_path, *extra_args],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def run_diff(tmp, baseline, current, extra_args=()):
    base_path = os.path.join(tmp, "base.json")
    cur_path = os.path.join(tmp, "cur.json")
    with open(base_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f)
    with open(cur_path, "w", encoding="utf-8") as f:
        json.dump(current, f)
    return run_paths(base_path, cur_path, extra_args)


def expect(cond, what, output):
    if not cond:
        print(f"FAIL: {what}\n--- bench_diff output ---\n{output}")
        sys.exit(1)
    print(f"ok: {what}")


def main():
    base = [record("threads=4/count=256", "fork_ns", 1000.0)]

    with tempfile.TemporaryDirectory() as tmp:
        # 1. Whole new family in current only: reported, never gating.
        cur = base + [
            record("ingress=socket/count=1024", "socket_roundtrip_ns", 9e5),
            record("ingress=socket/count=1024", "direct_roundtrip_ns", 8e5),
        ]
        rc, out = run_diff(tmp, base, cur, ("--fail-above", "10"))
        expect(rc == 0, "added family does not gate under --fail-above", out)
        expect("family added" in out and "ingress" in out,
               "added family is called out in the report", out)

        # 2. New series in an existing family: "new", not gating.
        cur = base + [record("threads=8/count=256", "fork_ns", 5000.0)]
        rc, out = run_diff(tmp, base, cur, ("--fail-above", "10"))
        expect(rc == 0, "new series in existing family does not gate", out)
        expect("new" in out, "new series is marked 'new'", out)

        # 3. A real regression still fails the gate.
        cur = [record("threads=4/count=256", "fork_ns", 2000.0)]
        rc, out = run_diff(tmp, base, cur, ("--fail-above", "10"))
        expect(rc == 1, "genuine +100% regression fails --fail-above 10", out)

        # ... and the same regression passes without gating flags
        # (informational default for noisy CI hosts).
        rc, out = run_diff(tmp, base, cur)
        expect(rc == 0, "regression is informational without gating flags",
               out)

        # 4. Family only in the baseline: noted as removed, no gate trip.
        rc, out = run_diff(
            tmp, base + [record("shard=2/count=64", "drain_ns", 100.0)],
            base, ("--fail-above", "10"))
        expect(rc == 0, "removed family does not gate", out)
        expect("family removed" in out, "removed family is called out", out)

        # 5. --min-abs-ns: percentage gating against a near-zero baseline
        # (signed overhead metrics) is noise — the series is reported but
        # never trips the gate, while a same-file real regression still
        # does. A negative baseline never gates even without the floor.
        tiny_base = base + [
            record("ingress=sock/count=1024", "ingress_overhead_ns", 400.0),
            record("ingress=sock/count=65536", "ingress_overhead_ns", -900.0),
        ]
        tiny_cur = base + [
            record("ingress=sock/count=1024", "ingress_overhead_ns", 1800.0),
            record("ingress=sock/count=65536", "ingress_overhead_ns", 2500.0),
        ]
        rc, out = run_diff(tmp, tiny_base, tiny_cur,
                           ("--fail-above", "10", "--min-abs-ns", "500"))
        expect(rc == 0, "sub-floor baseline (+350%) does not gate under "
               "--min-abs-ns", out)
        expect("below floor" in out, "sub-floor series is reported", out)
        expect("non-positive base" in out,
               "negative baseline is reported, not skipped", out)
        real = [record("threads=4/count=256", "fork_ns", 2500.0),
                record("ingress=sock/count=1024", "ingress_overhead_ns",
                       1800.0)]
        rc, out = run_diff(tmp, tiny_base, real,
                           ("--fail-above", "10", "--min-abs-ns", "500"))
        expect(rc == 1, "real regression above the floor still gates "
               "alongside sub-floor series", out)

        # 6. Host-id keying. The same +100% regression that gates on a
        # matching host class must demote to report-only across classes.
        regressed = [record("threads=4/count=256", "fork_ns", 2000.0)]
        rc, out = run_diff(tmp,
                           [snapshot_record("aaaa")] + base,
                           [snapshot_record("aaaa")] + regressed,
                           ("--fail-above", "10"))
        expect(rc == 1, "matching host_id keeps --fail-above armed", out)
        rc, out = run_diff(tmp,
                           [snapshot_record("aaaa")] + base,
                           [snapshot_record("bbbb")] + regressed,
                           ("--fail-above", "10"))
        expect(rc == 0, "mismatched host_id demotes gating to report-only",
               out)
        expect("report-only" in out,
               "host mismatch demotion is called out", out)
        rc, out = run_diff(tmp,
                           [snapshot_record("aaaa")] + base,
                           [snapshot_record("bbbb")] + regressed,
                           ("--strict",))
        expect(rc == 0, "mismatched host_id also demotes --strict", out)
        rc, out = run_diff(tmp, base,
                           [snapshot_record("bbbb")] + regressed,
                           ("--fail-above", "10"))
        expect(rc == 0, "snapshot on only one side demotes gating", out)

        # 7. Fail closed: a gate with no current file to read exits 1.
        base_path = os.path.join(tmp, "base.json")  # left by run_diff
        missing = os.path.join(tmp, "missing.json")
        for gate in (("--fail-above", "25"), ("--strict",)):
            rc, out = run_paths(base_path, missing, gate)
            expect(rc == 1 and missing in out,
                   f"missing current file fails {gate[0]} and is named", out)
        rc, out = run_paths(base_path, missing)
        expect(rc == 0, "missing current file without a gate skips", out)
        rc, out = run_paths(missing, base_path, ("--fail-above", "25"))
        expect(rc == 0, "missing baseline under a gate skips", out)

    print("bench_diff_test: all cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
