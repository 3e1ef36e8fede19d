#!/usr/bin/env python3
"""The benchmark's own test: a wrong answer must be counted as failed.

    python3 perfbench/test_perfbench.py

Builds navbench through run.py (as the benchmark itself does) and runs
short jacobi-threaded runs: a clean one, one that damages every second
gathered result before verification, and a traced one that damages every
result.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
CRASH_SOLVES = 5  # crash-drill solves every untraced run makes first


def bench(*extra, trace=0, seconds=1):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "jacobi-threaded",
         "--seed", "3", "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class VerificationCountsFailures(unittest.TestCase):
    def test_clean_run_is_correct(self):
        result = bench()
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], CRASH_SOLVES)

    def test_corrupted_results_are_failed(self):
        # A solve takes 0.6-1.5 s, so the run must be long enough for the
        # second (damaged) one.
        result = bench("--corrupt-every", "2", seconds=5)
        solves = result["attempted"] - CRASH_SOLVES
        self.assertGreaterEqual(solves, 2)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], solves // 2)
        # Failed solves are left out of the timings, not the metrics set.
        self.assertGreater(result["metrics"]["solve_s"]["value"], 0.0)

    def test_traced_run_with_every_result_damaged_still_reports(self):
        # No good solve leaves the per-layer ratios without a denominator;
        # the run must still end with a parseable correct:false result.
        result = bench("--corrupt-every", "1", trace=1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertIn("accounted_share", result["metrics"])


if __name__ == "__main__":
    unittest.main()
