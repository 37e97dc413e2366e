#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark (a few minutes on 4 cores).

Run from the root of a checkout:

    python3 e2ebench/test_smoke.py

For every workload in BENCHMARK.json it runs short timed and traced passes
and checks that each named metric is emitted with its unit and that the
output checks pass; a run with one deliberately corrupted output must count
a failed op. A directory holding only the benchmark (no sources) must make
the command fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, trace=0, corrupt=0, seconds=1, cwd=ROOT):
    cmd = BENCH["command"] + ["--workload", workload, "--seed", "7",
                              "--seconds", str(seconds), "--trace", str(trace),
                              "--corrupt", str(corrupt)]
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    return done.returncode, (json.loads(lines[-1]) if lines else None)


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, specs):
        want = {m["name"]: m["unit"] for m in specs}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(want, got)
        for name, metric in result["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)

    def test_workloads(self):
        for w in BENCH["workloads"]:
            name = w["name"]
            with self.subTest(workload=name, trace=0):
                rc, result = run(name)
                self.assertEqual(rc, 0)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.check_metrics(result, BENCH["end_to_end"])
                for metric in result["metrics"].values():
                    self.assertGreater(metric["value"], 0)
            with self.subTest(workload=name, trace=1):
                rc, result = run(name, trace=1)
                self.assertEqual(rc, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, BENCH["per_layer"])
            with self.subTest(workload=name, corrupt=1):
                rc, result = run(name, corrupt=1)
                self.assertEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_fails_without_sources(self):
        build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = os.path.join(ROOT, build, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            for path in BENCH["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ)
            env.pop("CARGO_TARGET_DIR", None)
            cmd = BENCH["command"] + ["--workload", "serve", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"]
            done = subprocess.run(cmd, cwd=bare, env=env, text=True,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn("metrics", done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
