#!/usr/bin/env python3
"""Tests of the benchmark itself, on its tiny-size quick mode.

Run from the repository root:  python3 perfbench/tests/test_perfbench.py

They check that every declared metric is emitted, with a valid name and a
unit, by every workload in both modes; that a flipped output digest and a
forged serve answer each make the command fail; and that the command fails
fast outside a ranycast checkout.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ["python3", "perfbench/run.py"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("paper", "chaos72k", "serve")
SEED = 1  # a seed whose quick-mode digests are recorded in perfbench/digests.json


def run(*args, cwd=ROOT):
    proc = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def quick(workload, trace=0, *extra):
    return run("--workload", workload, "--seed", str(SEED), "--seconds", "1",
               "--trace", str(trace), "--quick", *extra)


class QuickModeEmitsEveryMetric(unittest.TestCase):
    def setUp(self):
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            self.bench = json.load(f)

    def check_mode(self, workload, trace, kind):
        code, result, log = quick(workload, trace)
        self.assertEqual(code, 0, log)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], log)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in self.bench[kind]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertEqual(metric["unit"], declared[name])
            self.assertIsInstance(metric["value"], (int, float))

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_mode(workload, 0, "end_to_end")

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_mode(workload, 1, "per_layer")

    def test_all_workloads_in_one_command(self):
        code, result, log = run("--workload", "all", "--seed", str(SEED), "--seconds", "1",
                                "--trace", "0", "--quick")
        self.assertEqual(code, 0, log)
        self.assertTrue(result["correct"], log)
        expected = {f"{w}.{m['name']}" for w in WORKLOADS for m in self.bench["end_to_end"]}
        self.assertEqual(set(result["metrics"]), expected)


class ChecksCanFail(unittest.TestCase):
    def test_flipped_digest_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, log = quick(workload, 0, "--inject", "flip-digest")
                self.assertNotEqual(code, 0, log)
                self.assertFalse(result["correct"])
                self.assertIn("digest", log)

    def test_forged_serve_answer_fails(self):
        code, result, log = quick("serve", 0, "--inject", "forge-serve")
        self.assertNotEqual(code, 0, log)
        self.assertFalse(result["correct"])
        self.assertIn("sampled answers differ", log)

    def test_fails_outside_a_checkout(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            code, result, log = run("--workload", "paper", "--seed", "1", "--seconds", "1",
                                    "--trace", "0", cwd=tmp)
            self.assertNotEqual(code, 0, log)
            self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main(verbosity=2)
