#!/usr/bin/env python3
"""End-to-end benchmark runner for libaid.

Builds aidbench (bench/e2e/CMakeLists.txt, which adds the repo
root as a subdirectory), runs each workload in its own fresh process with
the AID_* environment cleared, prints every metric by name with its unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. Per-layer metrics of a layer that is not on a
workload's path (pipeline outside fine-chains, the serving tier outside
serve-mix, the Team runtime inside it) read 0 there; none of those is a
time. The table above the JSON line also shows what aidbench measures
beyond BENCHMARK.json: absolute pass and job times with their tails, and
per-layer times.

    python3 bench/e2e/run.py --workload amp-loops --seed 1 --seconds 25 --trace 0
    python3 bench/e2e/run.py --seed 1            # all four workloads
    python3 bench/e2e/run.py --check             # ~1 s smoke of all four

Seed 1 (the default) is the development seed; seed 20260 is held out for
confirming a gain claim (README.md).

Exit status is non-zero on any checksum mismatch, exactly-once violation,
failed job, build failure, or a host with fewer than 4 CPUs.
"""
import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("amp-loops", "sym-loops", "fine-chains", "serve-mix")
DEV_SEED = 1
MIN_CPUS = 4

# Which per-layer metrics each workload measures (name prefixes); the rest
# read 0 because their layer is not on that workload's path.
_LOOP_LAYERS = ("workloads.", "sched.", "rt.", "trace_overhead")
LAYERS_ON_PATH = {
    "amp-loops": _LOOP_LAYERS,
    "sym-loops": _LOOP_LAYERS,
    "fine-chains": _LOOP_LAYERS + ("pipeline.",),
    "serve-mix": ("workloads.build_ms", "pool.", "serve.", "ingress.",
                  "loadgen.", "trace_overhead"),
}


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configure (once) and build aidbench; returns its path."""
    out = build_dir() / "aidbench-build"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "aidbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(cmd), 3)
    return out / "aidbench"


def run_workload(binary, workload, args):
    """One workload in a fresh process; returns aidbench's record."""
    run_dir = build_dir() / "run"
    run_dir.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("AID_")}
    # Relative to aidbench's working directory: serve-mix binds its
    # socket there, and a socket path may not exceed 107 bytes.
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--warmup", repr(args.warmup),
           "--trace", str(args.trace),
           "--out-dir", os.path.relpath(run_dir, ROOT)]
    timeout = 2 * args.seconds + args.warmup + 90
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {timeout:.0f} s", 4)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"{workload}: aidbench exited {proc.returncode} without a result", 4)
    rec = json.loads(lines[-1])
    if proc.returncode != 0 and rec.get("correct", False):
        fail(f"{workload}: aidbench exited {proc.returncode}", 4)
    return rec


def contract_metrics(rec, names, trace):
    """The BENCHMARK.json metric set for one workload record."""
    have = rec["layer"] if trace else rec["e2e"]
    out = {}
    for name, unit in names:
        if name in have:
            out[name] = {"value": have[name]["value"], "unit": unit}
        elif trace and not name.startswith(LAYERS_ON_PATH[rec["workload"]]):
            out[name] = {"value": 0.0, "unit": unit}
        else:
            fail(f"{rec['workload']}: metric {name} missing from aidbench's record", 5)
    return out


def print_table(rec, names, trace):
    attempted, failed = rec["attempted"], rec["failed"]
    print(f"== {rec['workload']}  seed={rec['seed']}  trace={rec['trace']}  "
          f"correct={rec['correct']}  host={rec['sysinfo'].get('host_id')}  "
          f"nproc={rec['sysinfo'].get('nproc')}")
    print(f"  {'error_rate':34s} {failed / max(1, attempted):12.6g} "
          f"ratio   ({failed} of {attempted})")
    shown = rec["layer"] if trace else rec["e2e"]
    listed = {n for n, _ in names}
    unlisted = "  (table only)" if trace else "  (not gated)"
    for name, m in shown.items():
        tail = f"  p{m['tail_pct']}={m['tail']:.6g}" if "tail" in m else ""
        if "n" in m:
            tail += f"  n={m['n']}"
        mark = "" if name in listed else unlisted
        value = m["value"] if m["value"] is not None else math.nan
        print(f"  {name:34s} {value:12.6g} {m['unit']:7s}{tail}{mark}")
    for name, _ in names:
        if name not in shown:
            print(f"  {name:34s} {0.0:12.6g} n/a (layer not on this path)")
    for why in rec.get("failures", []):
        print("  FAILED: " + why)


def main():
    # Terminated, exit through subprocess.run, which then kills and reaps
    # the running aidbench instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per workload (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="smoke mode: about 1 s per workload")
    ap.add_argument("--out", help="also write the full records to this file")
    args = ap.parse_args()

    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    args.warmup = 2.0
    if args.check:
        args.seconds, args.warmup = 1.0, 0.5

    cpus = min(len(os.sched_getaffinity(0)), os.cpu_count() or 0)
    if cpus < MIN_CPUS:
        fail(f"needs at least {MIN_CPUS} CPUs for 4 team threads, host has {cpus}")

    section = "per_layer" if args.trace else "end_to_end"
    names = [(m["name"], m["unit"]) for m in spec[section]]
    binary = build()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    records = [run_workload(binary, w, args) for w in workloads]

    for rec in records:
        print_table(rec, names, args.trace)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
             "records": records}, indent=1) + "\n")

    metrics = {}
    for rec in records:
        m = contract_metrics(rec, names, args.trace)
        if len(records) == 1:
            metrics = m
        else:
            metrics.update({f"{rec['workload']}/{k}": v for k, v in m.items()})
    for name, v in metrics.items():
        if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            fail(f"metric {name} is not a finite number", 5)
    correct = all(r["correct"] for r in records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
