#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at toy scale, untraced and
traced. Asserts that run.py exits 0, that its output check passes, and
that its last line carries exactly the metrics BENCHMARK.json names, each
with its unit. Also asserts that run.py refuses to run (nonzero exit, no
result) without the simulator sources.

    python3 perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_bench(cwd, *args, timeout=900):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, workload, trace):
        proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace),
                         "--scale", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        group = self.spec["per_layer" if trace else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in group}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)
        return result["metrics"]

    def test_workloads(self):
        for workload in [w["name"] for w in self.spec["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    metrics = self.check(workload, trace)
                    if trace:
                        # Layer self times must cover the traced wall time.
                        self.assertLess(
                            metrics["obs.unattributed_pct"]["value"], 10)

    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = run_bench(bare, "--workload", "cab_hybrid", timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertFalse(proc.stdout.strip())
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
