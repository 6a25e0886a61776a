#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs, metric by metric.

    python3 bench/e2e/agree.py SET_A SET_B

Each set is a directory of `run.py --out` files, or a glob of them, holding
at least 5 untraced runs of every workload it names. For every (workload,
end-to-end metric) it prints each side's median and quartiles, how much
worse B's median is than A's, and a verdict against the metric's bound in
BENCHMARK.json:

  same        B's median is within the bound of A's
  worse       B's median is worse than A's by more than the bound
  better      B's median is better by more than the bound and by more than
              A's own quartile spread
  unresolved  a side's quartile spread is wider than the bound, so a change
              within the bound cannot be told from noise; it reads "better"
              instead only when every run of B beats every run of A

Two sets of the same commit should read "same" everywhere. A gain claim
needs more than a "better" row: at least ten alternating parent/change
pairs and a held-out seed (README.md, "Claiming a gain"). Exit status is 0
only when no row is worse or unresolved.
"""
import glob
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_RUNS = 5


def load(set_arg):
    """(workload, metric) -> list of values, one per untraced run."""
    pattern = os.path.join(set_arg, "*.json") if os.path.isdir(set_arg) else set_arg
    values = {}
    for path in sorted(glob.glob(pattern)):
        doc = json.loads(Path(path).read_text())
        if doc.get("trace"):
            continue
        for rec in doc["records"]:
            for name, m in rec["e2e"].items():
                values.setdefault((rec["workload"], name), []).append(m["value"])
    return values


def summary(vals):
    """Median, quartiles and the quartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, (q3 - q1) / med


def verdict(a, b, bound, better):
    """The row's verdict and B's relative worsening (> 0: B is worse)."""
    med_a, _, _, spread_a = summary(a)
    med_b, _, _, spread_b = summary(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a
    if max(spread_a, spread_b) > bound:
        b_beats_all = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("better" if b_beats_all else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > max(bound, spread_a):
        return "better", worse_by
    return "same", worse_by


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    a, b = load(sys.argv[1]), load(sys.argv[2])
    workloads = sorted({w for w, _ in a} | {w for w, _ in b})
    if not workloads:
        sys.exit("no untraced runs found")
    print(f"{'workload':12s} {'metric':20s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'worse':>7s} {'bound':>6s}  verdict")
    bad = 0
    for w in workloads:
        for m in spec["end_to_end"]:
            va, vb = a.get((w, m["name"]), []), b.get((w, m["name"]), [])
            if len(va) < MIN_RUNS or len(vb) < MIN_RUNS:
                sys.exit(f"{w} {m['name']}: need {MIN_RUNS} runs per side, "
                         f"have {len(va)} and {len(vb)}")
            v, worse_by = verdict(va, vb, m["bound"], m["better"])
            bad += v in ("worse", "unresolved")
            cols = ["%.5g [%.5g, %.5g]" % summary(vals)[:3] for vals in (va, vb)]
            print(f"{w:12s} {m['name']:20s} {cols[0]:>30s} {cols[1]:>30s} "
                  f"{100 * worse_by:+6.1f}% {100 * m['bound']:5.0f}%  {v}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
