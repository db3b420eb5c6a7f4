#!/usr/bin/env python3
"""The benchmark's own tests: every workload's check passes on a clean run
and fails when --perturb 1 nudges one output (one estimate bit, one
response, or one WAL frame).

Run from the repository root (builds on first use, like run.py):

    python3 perfbench/test_checks.py
"""
import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ["campaign", "serve_replay", "cluster_replicated"]


def run(workload, perturb, trace="0"):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", trace, "--perturb", perturb],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


class ChecksTest(unittest.TestCase):
    def test_clean_runs_pass(self):
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, "0", trace)
                    self.assertEqual(code, 0, err)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)

    def test_perturbed_runs_fail(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, err = run(workload, "1")
                self.assertEqual(code, 1, err)
                self.assertFalse(result["correct"])
                self.assertIn("check failed", err)


if __name__ == "__main__":
    unittest.main()
