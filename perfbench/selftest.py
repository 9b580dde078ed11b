"""Self-tests of the benchmark itself (not of ipbm).

Usage, from the repository root:  python3 perfbench/selftest.py

Runs the smoke workload end to end, traced and untraced, checks the
emitted metric names against BENCHMARK.json, and checks that failed
solves are counted instead of stopping the run.  Takes about a minute.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from tracing import LAYER_METRICS, Tracer, layer_metrics, self_times
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" /
                                               "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


class MetricNames(unittest.TestCase):
    def test_benchmark_json_matches_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(LAYER_METRICS))
        for w in spec["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names + [w["name"] for w in spec["workloads"]]:
            self.assertTrue(NAME.fullmatch(name), name)


class SmokeRuns(unittest.TestCase):
    def _result(self, trace):
        proc = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1",
                      "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"], proc.stdout)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for name, metric in result["metrics"].items():
            self.assertTrue(NAME.fullmatch(name), name)
            self.assertTrue(math.isfinite(metric["value"]), name)
        return result

    def test_untraced_reports_end_to_end(self):
        result = self._result(0)
        self.assertEqual(list(result["metrics"]),
                         [name for name, _ in run.END_TO_END])
        self.assertTrue(all(m["value"] > 0
                            for m in result["metrics"].values()))

    def test_traced_reports_layers(self):
        metrics = self._result(1)["metrics"]
        self.assertEqual(list(metrics), [name for name, _ in LAYER_METRICS])
        self.assertEqual(metrics["runner.solves"]["value"], 1)
        self.assertGreater(metrics["solver.dense_qr.s"]["value"], 0)
        self.assertGreater(metrics["assembly.assemble_ipbf.self_s"]["value"],
                           0)

    def test_bare_checkout_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = _bench("--workload", "tp-sweep", "--seed", "1",
                          "--seconds", "1", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


class FailureCounting(unittest.TestCase):
    """A request that raises or a solve that misses its bound is counted."""

    @classmethod
    def setUpClass(cls):
        cls.ipbm = run.import_ipbm()

    def _smoke_pass(self, attr, replacement):
        runner = self.ipbm.runner
        original = getattr(runner, attr)
        setattr(runner, attr, replacement)
        try:
            return run.run_pass(self.ipbm, runner.run_experiment,
                                WORKLOADS["smoke"], 1, "")
        finally:
            setattr(runner, attr, original)

    def test_raising_solve_is_counted(self):
        def broken(system):
            raise RuntimeError("injected failure")
        result = self._smoke_pass("solve_least_squares", broken)
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))
        self.assertIn("injected failure", result["solves"][-1]["error"])

    def test_raising_solve_is_counted_when_traced(self):
        def broken(system):
            raise RuntimeError("injected failure")
        runner = self.ipbm.runner
        original = runner.solve_least_squares
        runner.solve_least_squares = broken
        try:
            passes, tracer = run.traced_passes(
                self.ipbm, WORKLOADS["smoke"], [{"seed": 1}], "")
        finally:
            runner.solve_least_squares = original
        self.assertEqual(passes[0]["failed"], 1)
        values = layer_metrics(tracer.spans, tracer.cg_iterations, 1, 3000)
        self.assertEqual(values["runner.requests"], 1)
        self.assertEqual(values["solver.dense_qr.s"], 0.0)

    def test_inaccurate_solve_is_counted(self):
        def inaccurate(space, coeffs, u_true, pts):
            return self.ipbm.ErrorSummary(1.0, 1.0, len(pts))
        result = self._smoke_pass("evaluate_errors", inaccurate)
        self.assertEqual((result["attempted"], result["failed"]), (1, 1))
        self.assertTrue(result["solves"][0]["problems"])


class Tracing(unittest.TestCase):
    def test_wrappers_are_restored(self):
        ipbm = run.import_ipbm()
        before = (ipbm.runner.solve_least_squares, ipbm.solver.spla,
                  ipbm.assembly.tp_design_matrix)
        with Tracer().installed():
            self.assertIsNot(ipbm.runner.solve_least_squares, before[0])
            self.assertIsNot(ipbm.solver.spla, before[1])
        self.assertEqual((ipbm.runner.solve_least_squares, ipbm.solver.spla,
                          ipbm.assembly.tp_design_matrix), before)

    def test_self_time_subtracts_children(self):
        spans = [{"start": 0.0, "end": 10.0, "parent": None},
                 {"start": 1.0, "end": 3.0, "parent": 0},
                 {"start": 4.0, "end": 8.0, "parent": 0},
                 {"start": 5.0, "end": 6.0, "parent": 2}]
        self.assertEqual(self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_cg_iterations_counted(self):
        ipbm = run.import_ipbm()
        import numpy as np
        import scipy.sparse as sp
        H = sp.random(60, 40, density=0.3, random_state=0) + sp.eye(60, 40)
        tracer = Tracer()
        with tracer.installed():
            result = ipbm.solve_least_squares((H, np.ones(60)),
                                              force_path="iterative",
                                              compute_condition=False)
        self.assertEqual(result.method, "normal-cg")
        self.assertGreater(tracer.cg_iterations, 0)


if __name__ == "__main__":
    unittest.main()
