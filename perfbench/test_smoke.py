#!/usr/bin/env python3
"""Smoke test of the benchmark itself: builds it if needed, runs every
workload at tiny sizes with every correctness check, and checks the result
line. Run from the repository root: python3 perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("fleet", "replay", "campaign", "serve")
END_TO_END = ("setup_s", "peak_rss_mb", "units_per_s", "rtf_p50", "rtf_tail")


class SmokeTest(unittest.TestCase):
    def test_smoke_passes_every_check(self):
        run = subprocess.run([sys.executable, RUN, "--smoke"],
                             stdout=subprocess.PIPE, text=True, timeout=900)
        self.assertEqual(run.returncode, 0, run.stdout[-2000:])
        lines = run.stdout.rstrip("\n").split("\n")
        self.assertNotIn("CHECK FAILED", run.stdout)
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        for workload in WORKLOADS:
            self.assertIn("## workload %s:" % workload, run.stdout)
            for metric in END_TO_END:
                value = result["metrics"]["%s.%s" % (workload, metric)]
                self.assertGreater(value["value"], 0, (workload, metric))


if __name__ == "__main__":
    unittest.main()
