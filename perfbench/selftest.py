#!/usr/bin/env python3
"""Tests of the benchmark itself.  Run from the repository root:

    python3 perfbench/selftest.py

They check that a seed fixes the inputs byte for byte, that a planted wrong
top singular value is counted as a failed operation, that a known defect
excuses only its own failure (a wrong support value on the N=520 operation
is a new one), that every printed metric name and unit matches
BENCHMARK.json, and that the runner refuses to run without the program's
source.  The runner subprocesses take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench modules live next to this file)

run.prepare(ROOT)

import inputs  # noqa: E402
import oracles  # noqa: E402
import ops  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)


class InputsTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for w in inputs.WORKLOADS:
            a = json.dumps(inputs.generate(w, 7), sort_keys=True)
            b = json.dumps(inputs.generate(w, 7), sort_keys=True)
            self.assertEqual(a, b, w)

    def test_seed_and_pass_change_inputs(self):
        for w in ("operator-sweep", "symbol-kernels"):
            a = json.dumps(inputs.generate(w, 7), sort_keys=True)
            b = json.dumps(inputs.generate(w, 8), sort_keys=True)
            c = json.dumps(inputs.generate(w, 7, 1), sort_keys=True)
            self.assertNotEqual(a, b, w)
            self.assertNotEqual(a, c, w)

    def test_known_defects_stay_in_the_plan(self):
        for seed in (1, 2, 3):
            for w in ("operator-sweep", "symbol-kernels"):
                tagged = {op["known_defect"] for op in inputs.generate(w, seed) if op.get("known_defect")}
                self.assertTrue(tagged <= set(inputs.KNOWN_DEFECTS), tagged)
            texts = [op.get("text") for op in inputs.generate("symbol-kernels", seed)]
            self.assertIn("0.6 - 0.6*z^4096", texts)


class OracleTest(unittest.TestCase):
    def _schedule(self) -> dict:
        return next(op for op in inputs.generate("operator-sweep", 3)
                    if op["kind"] == "schedule" and op["dims"][-1] <= 64)

    def test_planted_wrong_top_singular_value_fails(self):
        import hardyop as h
        op = self._schedule()
        out = ops.run_schedule(op)
        self.assertEqual(oracles.check_schedule(h, op, out), [])
        bad = dict(out, values=[out["values"][0] * (1 + 1e-6), *out["values"][1:]])
        verdicts = run.judge(h, [[op, 0.01, bad, None]])
        self.assertEqual(len(verdicts), 1)
        self.assertTrue(verdicts[0]["reasons"])
        self.assertEqual(verdicts[0]["unexpected"], verdicts[0]["reasons"])

    def test_known_defect_covers_only_its_own_failure(self):
        """The N=520 boundary may raise ConvergenceError; a wrong support value
        on the same operation is a new failure."""
        import hardyop as h
        from hardyop import numrange
        op = next(op for op in inputs.generate("operator-sweep", 3)
                  if op.get("known_defect") == "boundary_above_dense_cut")
        stall = run.judge(h, [[op, 1.0, None, "ConvergenceError: did not converge"]])[0]
        self.assertTrue(stall["reasons"])
        self.assertEqual(stall["unexpected"], [])
        other = run.judge(h, [[op, 1.0, None, "ValueError: bad grid"]])[0]
        self.assertTrue(other["unexpected"])
        # a returning solve, here the dense path, must still be right
        with mock.patch.object(numrange, "DENSE_EIG_MAX", op["N"]):
            out = ops.run_boundary(op)
        self.assertEqual(oracles.check_boundary(h, op, out), [])
        support = out["support"].copy()
        support[0] += 1e-6
        wrong = run.judge(h, [[op, 1.0, dict(out, support=support), None]])[0]
        self.assertTrue(wrong["unexpected"])

    def test_verify_defect_covers_only_the_plateau(self):
        plateau = "assertion failed: plateau value(512) - value(256) (value 0.0003, target 1e-06)"
        z2 = "assertion failed: restricted norm of z^2 at N=128 (value 0.9, target 1.0)"
        self.assertEqual(inputs.unexpected([plateau], "restricted_plateau"), [])
        self.assertEqual(inputs.unexpected([plateau, z2], "restricted_plateau"), [z2])
        self.assertEqual(inputs.unexpected([plateau], None), [plateau])

    def test_accepting_a_non_selfmap_fails(self):
        op = next(op for op in inputs.generate("symbol-kernels", 3) if op["kind"] == "reject")
        self.assertTrue(oracles.check_reject(None, op, {"accepted": True, "stage": "validate"}))
        self.assertFalse(oracles.check_reject(None, op, {"accepted": False, "stage": "validate"}))


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        spec = _spec()
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run("--workload", "symbol-kernels", "--seed", "5", "--seconds", "1",
                        "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(last["correct"])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual({k: v["unit"] for k, v in last["metrics"].items()}, declared)

    def test_refuses_to_run_without_source(self):
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-all",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=120)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
