#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny scale.

    python3 perfbench/test_perfbench.py

Checks that each workload emits every metric BENCHMARK.json names (end to
end with --trace 0, per layer with --trace 1) with its declared unit, that
every read matches the oracle, that the oracle gate trips when it is handed
a wrong reference count, and that the benchmark refuses to run without the
repository sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
TINY = ["--scale", "0.1"]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace)] + TINY + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


class PerfbenchTest(unittest.TestCase):
    def test_every_workload_emits_every_metric(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    rc, result = run(workload, trace)
                    self.assertEqual(rc, 0)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
                    for m in declared:
                        self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_oracle_gate_trips_on_wrong_reference(self):
        for trace in (0, 1):
            with self.subTest(trace=trace):
                rc, result = run("fit-sf1", trace, "--oracle-offset", "1")
                self.assertNotEqual(rc, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            rc, result = run("fit-sf1", 0, cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(rc, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    sys.exit(unittest.main())
