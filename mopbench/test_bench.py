#!/usr/bin/env python3
"""Tests of the mopsim benchmark itself.

Run from the root of a checkout (builds the benchmark if needed):

    python3 mopbench/test_bench.py

Covers: metric names in BENCHMARK.json, the binary's --selftest
(chunked run() with absolute targets is byte-identical to one run(),
cycles_stepped + cycles_skipped == cycles, no span has a negative self
time), and a tiny-budget smoke run of every workload in both modes,
which must print exactly the metrics BENCHMARK.json declares.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (the benchmark's own build-and-run entry point)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
HELD_OUT_SEED = "7"

# Per-run budget of the smoke runs: enough to exercise every path.
SMOKE_INSTS = {"suite-cold": "2000"}
DEFAULT_SMOKE_INSTS = "20000"


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def bench(self, *args):
        proc = subprocess.run([self.exe, *args, "--out", run.OUT_DIR],
                              stdout=subprocess.PIPE, text=True,
                              timeout=run.RUN_TIMEOUT_S)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        return proc.stdout

    def smoke(self, workload, trace, seed="0"):
        insts = SMOKE_INSTS.get(workload, DEFAULT_SMOKE_INSTS)
        out = self.bench("--workload", workload, "--seed", seed,
                         "--seconds", "1", "--trace", str(trace),
                         "--insts", insts)
        result = run.last_json_line(out)
        self.assertIsNotNone(result, out)
        return result

    def check_result(self, result, declared, context):
        self.assertTrue(result["correct"], context)
        self.assertEqual(result["failed"], 0, context)
        self.assertGreaterEqual(result["attempted"], 1, context)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in declared},
                         context)
        for m in declared:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"],
                             f"{context}: {m['name']}")
            self.assertTrue(math.isfinite(got["value"]),
                            f"{context}: {m['name']}")

    def test_metric_names_and_units(self):
        names = [w["name"] for w in SPEC["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in SPEC[group]]
            for m in SPEC[group]:
                self.assertRegex(m["unit"], UNIT_RE)
                self.assertIn(m["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_selftest(self):
        out = self.bench("--selftest")
        self.assertIn("selftest: ok", out)

    def test_smoke_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check_result(self.smoke(w["name"], 0),
                                  SPEC["end_to_end"], w["name"])
            with self.subTest(workload=w["name"], trace=1):
                self.check_result(self.smoke(w["name"], 1),
                                  SPEC["per_layer"], w["name"])

    def test_pinned_digests(self):
        # One full-budget run per workload at seed 0 checks its output
        # against the digest pinned in main.cc.
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                out = self.bench("--workload", w["name"], "--seed", "0",
                                 "--seconds", "0.1", "--trace", "0")
                self.check_result(run.last_json_line(out),
                                  SPEC["end_to_end"], w["name"])
                self.assertNotIn("FAILED", out)
                self.assertIn("(matches pin)", out)

    def test_held_out_seed(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check_result(self.smoke(w["name"], 0, HELD_OUT_SEED),
                                  SPEC["end_to_end"], w["name"])

    def test_bad_arguments_exit_2(self):
        for args in (["--workload", "nope"], ["--seed", "-1"],
                     ["--trace", "2"], ["--seconds", "0"]):
            with self.subTest(args=args):
                proc = subprocess.run([self.exe, *args],
                                      stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                self.assertEqual(proc.returncode, 2)
                self.assertIn("error:", proc.stderr)


if __name__ == "__main__":
    unittest.main()
