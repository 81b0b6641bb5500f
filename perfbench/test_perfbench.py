#!/usr/bin/env python3
"""Self-tests of the benchmark:  python3 perfbench/test_perfbench.py

They build the worker the way run.py does, then check on the workloads'
own iterations that every workload passes its oracle, that the outside call
counts equal the runtime's own counters, that the inputs follow the seed,
that the result line keeps its contract, and that a directory holding only
the benchmark fails cleanly.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

APP_WORKLOADS = ("em3d-sc-proc", "em3d-static-thread", "miglock-sc-thread")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class WorkerTest(unittest.TestCase):
    exe = None

    @classmethod
    def setUpClass(cls):
        cls.exe = run.build()

    def worker(self, *args):
        rec = run.run_worker(self.exe, list(args))
        self.assertIsNotNone(rec, args)
        return rec

    def test_outside_counts_equal_runtime_counters(self):
        for w in APP_WORKLOADS:
            with self.subTest(workload=w):
                rec = self.worker("--workload=" + w, "--seed=3", "--trace=1")
                self.assertTrue(rec["ok"], rec["why"])
                xc = rec["xcheck"]
                self.assertEqual(set(xc), {
                    "start_reads", "start_writes", "maps", "unmaps", "locks",
                    "unlocks", "barriers", "acquires+releases"})
                for name, (outside, runtime) in xc.items():
                    self.assertEqual(outside, runtime, name)
                self.assertGreater(xc["start_reads"][0], 0)
                self.assertGreater(xc["barriers"][0], 0)
                if w.startswith("miglock"):
                    self.assertGreater(xc["locks"][0], 0)
                    self.assertGreater(xc["acquires+releases"][0], 0)
                if w == "em3d-sc-proc":  # map/unmap around every access
                    self.assertGreater(xc["unmaps"][0], 0)
                layers = rec["layers"]
                self.assertGreater(layers["ace.read.busy_s"], 0)
                self.assertGreater(layers["ace.read.p99_us"],
                                   layers["ace.read.p50_us"])

    def test_untraced_iteration_times_no_calls(self):
        rec = self.worker("--workload=miglock-sc-thread", "--seed=1")
        self.assertTrue(rec["ok"], rec["why"])
        self.assertNotIn("ace.read.calls", rec["layers"])
        self.assertEqual(rec["xcheck"], {})
        self.assertGreater(rec["layers"]["protocols.recalls"], 0)

    def test_inputs_follow_the_seed(self):
        args = ("--workload=em3d-static-thread",)
        a = self.worker("--seed=5", *args)
        b = self.worker("--seed=5", *args)
        c = self.worker("--seed=6", *args)
        for rec in (a, b, c):
            self.assertTrue(rec["ok"], rec["why"])
        self.assertEqual(a["checksum_bits"], b["checksum_bits"])
        self.assertNotEqual(a["checksum_bits"], c["checksum_bits"])

    def test_kernels_match_the_hand_versions(self):
        rec = self.worker("--workload=kernels-dc-thread", "--seed=1")
        self.assertTrue(rec["ok"], rec["why"])
        self.assertGreater(rec["layers"]["acec.protocol_calls"], 0)
        self.assertGreater(rec["layers"]["acec.direct"], 0)
        self.assertNotIn("protocols.read_hit_ratio", rec["layers"])


class RunContractTest(unittest.TestCase):
    def result(self, cwd, trace, env=None):
        return subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "miglock-sc-thread", "--seed", "1", "--seconds", "1", "--trace",
             str(trace)], cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=900)

    def test_result_line(self):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                p = self.result(ROOT, trace)
                self.assertEqual(p.returncode, 0)
                res = json.loads(p.stdout.strip().splitlines()[-1])
                self.assertEqual(set(res),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(res["correct"])
                self.assertEqual(res["failed"], 0)
                self.assertEqual(list(res["metrics"]),
                                 [m["name"] for m in s[key]])
                for m in s[key]:
                    self.assertEqual(res["metrics"][m["name"]]["unit"],
                                     m["unit"])
                    if trace == 0:
                        self.assertGreater(res["metrics"][m["name"]]["value"],
                                           0, m["name"])

    def test_benchmark_alone_fails_cleanly(self):
        alone = os.path.join(run.build_dir(), "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        try:
            p = self.result(alone, 0, env)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(alone)


if __name__ == "__main__":
    unittest.main()
