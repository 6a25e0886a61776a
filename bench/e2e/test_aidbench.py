#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

Runs `run.py --check` (about 1 s per workload) untraced and traced, and
asserts that every metric BENCHMARK.json names is printed for every
workload with a finite value, and that no operation failed.

    python3 bench/e2e/test_aidbench.py
"""
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("amp-loops", "sym-loops", "fine-chains", "serve-mix")


def smoke(trace):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "records.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--check", "--trace",
             str(trace), "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        records = json.loads(out.read_text())["records"] if out.exists() else []
    return proc, records


class AidBenchSmoke(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, trace, section):
        proc, records = smoke(trace)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(final), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(final["correct"])
        self.assertGreater(final["attempted"], 0)
        self.assertEqual(final["failed"], 0)  # error_rate = 0
        self.assertEqual([r["workload"] for r in records], list(WORKLOADS))
        for rec in records:
            self.assertEqual(rec["failed"], 0, rec["failures"])
        for w in WORKLOADS:
            for m in self.spec[section]:
                key = f"{w}/{m['name']}"
                self.assertIn(key, final["metrics"])
                self.assertEqual(final["metrics"][key]["unit"], m["unit"])
                self.assertTrue(math.isfinite(final["metrics"][key]["value"]), key)
        self.assertEqual(len(final["metrics"]),
                         len(WORKLOADS) * len(self.spec[section]))

    def test_end_to_end_metrics(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics(self):
        self.check(1, "per_layer")


if __name__ == "__main__":
    unittest.main()
