#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

builds the driver if needed and runs every workload at quick size,
untraced and traced. Takes about a minute after the build.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import reduce_trace  # noqa: E402
import run  # noqa: E402

SEED = 3


def quick_run(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--quick"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        check=True, cwd=run.ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])


def record(workload, trace):
    path = os.path.join(run.RESULTS, "%s.seed%d.trace%d.json" % (
        workload, SEED, trace))
    with open(path) as f:
        return json.load(f)


class QuickRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.plain = quick_run(0)
        cls.traced = quick_run(1)

    def check_line(self, line, metrics):
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(line["failed"], 0)
        self.assertGreater(line["attempted"], 0)
        for w in run.WORKLOADS:
            for name, unit in metrics.items():
                m = line["metrics"]["%s/%s" % (w, name)]
                self.assertEqual(m["unit"], unit, name)
                self.assertIsInstance(m["value"], float, name)

    def test_every_end_to_end_metric_emitted_with_unit(self):
        self.check_line(self.plain, run.END_TO_END)
        for w in run.WORKLOADS:
            for name in run.END_TO_END:
                self.assertGreater(
                    self.plain["metrics"]["%s/%s" % (w, name)]["value"], 0)

    def test_every_per_layer_metric_emitted_with_unit(self):
        self.check_line(self.traced, run.PER_LAYER)
        for w in run.WORKLOADS:
            for layer in reduce_trace.LAYERS:
                if layer == "os" and w == "sweep_exact":
                    continue  # The sweep never enters the OS layer.
                v = self.traced["metrics"]["%s/layer.%s.self_s" % (
                    w, layer)]["value"]
                self.assertGreater(v, 0, (w, layer))

    def test_traced_and_untraced_digests_agree(self):
        for w in run.WORKLOADS:
            self.assertEqual(record(w, 0)["digest"], record(w, 1)["digest"],
                             w)

    def test_context_recorded(self):
        ctx = record("serve_churn", 0)["context"]
        for key in ("nproc", "cpu_model", "compiler", "build_type", "lto",
                    "seed", "jobs"):
            self.assertIn(key, ctx)
        self.assertEqual(ctx["seed"], SEED)


class Reducer(unittest.TestCase):
    @staticmethod
    def span(i, parent, name, thread, t0, t1):
        return {"id": i, "parent": parent, "name": name, "thread": thread,
                "iter": 1, "arm": -1, "t0": t0, "t1": t1}

    def test_self_time_and_accounting(self):
        s = self.span
        spans = [
            s(1, 0, "sim.batch", 0, 0, 100),
            s(2, 1, "workload.build", 0, 5, 25),
            s(3, 1, "sim.fanout", 0, 30, 90),
            s(4, 3, "sim.task", 1, 31, 80),
            s(5, 4, "cpu.request", 1, 40, 70),
            s(6, 3, "sim.task", 2, 32, 85),
        ]
        out, errors = reduce_trace.reduce_batch(spans)
        self.assertEqual(errors, [])
        # batch 100 - 20 - 60; fan-out 60 minus tasks covering 31..85.
        self.assertAlmostEqual(out["layer.sim.self_s"],
                               (20 + 6 + 19 + 53) * 1e-9)
        self.assertAlmostEqual(out["layer.cpu.self_s"], 30e-9)
        self.assertAlmostEqual(out["workload.build_s"], 20e-9)

    def test_overlapping_siblings_are_reported(self):
        s = self.span
        spans = [
            s(1, 0, "sim.batch", 0, 0, 100),
            s(2, 1, "workload.build", 0, 10, 50),
            s(3, 1, "workload.load", 0, 40, 60),
        ]
        _, errors = reduce_trace.reduce_batch(spans)
        self.assertEqual(len(errors), 1)


class Baseline(unittest.TestCase):
    def test_recorded_digests(self):
        with open(run.BASELINE) as f:
            base = json.load(f)
        for w in run.WORKLOADS:
            for seed in base["seeds"] + [base["held_out_seed"]]:
                self.assertRegex(run.recorded_digest(w, seed),
                                 "^[0-9a-f]{16}$", (w, seed))
        self.assertIsNone(run.recorded_digest("serve_churn", 10 ** 9))


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in bench["workloads"]),
                         run.BENCHMARKED)


if __name__ == "__main__":
    unittest.main()
