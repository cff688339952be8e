#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Run from the repository root (builds perfbench/ like run.py does). Checks
that the traced engine adapter reproduces SeqNocSimulation's digests, that
every metric a run emits is declared in BENCHMARK.json and vice versa, and
that bad command lines are rejected with a clear error.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (perfbench/run.py)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
META = json.loads((HERE / "metric_map.json").read_text(encoding="utf-8"))
SHORT_SECONDS = "6"


def run_py(*args):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, check=False)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build(run.build_dir())

    def test_traced_adapter_matches_sequential_engine(self):
        proc = subprocess.run([str(self.binary), "--selftest"], capture_output=True,
                              text=True, check=False)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(report["correct"], report["failures"])
        self.assertGreater(report["attempted"], 0)

    def check_names(self, trace, declared):
        for wl in BENCH["workloads"]:
            with self.subTest(workload=wl["name"], trace=trace):
                proc = run_py("--workload", wl["name"], "--seed", "3",
                              "--seconds", SHORT_SECONDS, "--trace", trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                res = result_of(proc)
                self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(set(res["metrics"]), set(declared))
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], declared[name], name)

    def test_untraced_metrics_match_benchmark_json(self):
        self.check_names("0", {m["name"]: m["unit"] for m in BENCH["end_to_end"]})

    def test_traced_metrics_match_benchmark_json(self):
        self.check_names("1", {m["name"]: m["unit"] for m in BENCH["per_layer"]})

    def test_layer_map_names_are_declared(self):
        e2e = {m["name"] for m in BENCH["end_to_end"]}
        layers = {m["name"] for m in BENCH["per_layer"]}
        workloads = {w["name"] for w in BENCH["workloads"]}
        service = set(META["service_figures"]["metrics"])
        mapped = {row["metric"] for row in META["layers"]}
        self.assertEqual(mapped, layers)
        self.assertLessEqual(service, layers)
        for row in META["layers"]:
            self.assertLessEqual(set(row["moves"]), e2e | service, row["metric"])
            self.assertLessEqual(set(row["workload"].split()), workloads, row["metric"])

    def test_unknown_workload_is_rejected(self):
        proc = run_py("--workload", "noc9x9_nothing", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, run.EXIT_USAGE)
        self.assertIn("unknown workload 'noc9x9_nothing'", proc.stderr)
        self.assertEqual(proc.stdout, "")

    def test_bad_seed_is_rejected(self):
        for seed in ("abc", "-1", "1.5", "", "18446744073709551616"):
            with self.subTest(seed=seed):
                proc = run_py("--workload", "farmd_sweep", "--seed", seed,
                              "--seconds", "1", "--trace", "0")
                self.assertEqual(proc.returncode, run.EXIT_USAGE)
                self.assertIn("--seed must be a non-negative decimal integer",
                              proc.stderr)
                self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
