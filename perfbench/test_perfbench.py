#!/usr/bin/env python3
"""The benchmark's own checks. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then checks at short run lengths that
the sharded workload's fingerprint equals the same config at shards=1,
that a repeated operation reproduces its fingerprint and work counts, and
that BENCHMARK.json and perfbench/workloads.json agree.
"""
import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own module)

SPEC = json.loads((run.HERE / "workloads.json").read_text())
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BINARY = None


def short_op(workload, seed, *extra):
    """One operation of `workload` cut to a short measurement window."""
    wl = SPEC["workloads"][workload]
    short = ["--measure-ms=0.5"]
    if workload == "mesh16_overload":  # keep phase 1 inside the window
        short = ["--measure-ms=2", "--phase.1.start-ms=1"]
    res, bad = run.run_op(BINARY, run.op_args(wl, seed, (*short, *extra)))
    assert res is not None and not bad, bad
    return res


class ShardedCorrectness(unittest.TestCase):
    def test_mesh64_shard4_matches_serial(self):
        sharded = short_op("mesh64_shard4", 100)
        serial = short_op("mesh64_shard4", 100, "--shards=1")
        self.assertGreater(sharded["shard.windows"], 0)
        self.assertTrue(sharded["shard.threaded"])
        self.assertEqual(serial["shard.windows"], 0)
        self.assertEqual(run.mismatches(serial, sharded, run.SERIAL_COUNTS), [])


class Determinism(unittest.TestCase):
    def test_repeat_reproduces_fingerprint_and_counts(self):
        first = short_op("mesh16_overload", 100)
        again = short_op("mesh16_overload", 100)
        self.assertEqual(run.mismatches(again, first, run.WORK_COUNTS), [])

    def test_other_seed_differs(self):
        a = short_op("mesh16_sat", 100)
        b = short_op("mesh16_sat", 101)
        self.assertNotEqual(a["fingerprint"], b["fingerprint"])


class Spans(unittest.TestCase):
    def test_self_time_excludes_children(self):
        spans = [
            {"name": "op", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"name": "a", "start_ns": 10, "end_ns": 40, "parent": 0},
            {"name": "b", "start_ns": 30, "end_ns": 60, "parent": 0},
        ]
        out = run.self_times(spans)
        self.assertEqual(out[0]["self_ns"], 50)
        self.assertEqual(out[1]["self_ns"], 30)


class Declarations(unittest.TestCase):
    def test_workloads_agree(self):
        self.assertEqual([w["name"] for w in BENCH["workloads"]],
                         list(SPEC["workloads"]))

    def test_traced_op_reports_every_layer_metric(self):
        wl = SPEC["workloads"]["mesh16_sat"]
        res, bad = run.run_op(BINARY, run.op_args(
            wl, 100, ("--measure-ms=0.5", "--trace")))
        self.assertEqual(bad, [])
        derived = {"core.ctor_s", "core.prepare_s", "sim.events",
                   "shard.speedup", "trace.overhead_pct"}
        missing = [m["name"] for m in BENCH["per_layer"]
                   if m["name"] not in res and m["name"] not in derived]
        self.assertEqual(missing, [])


if __name__ == "__main__":
    BINARY = run.build()
    unittest.main()
