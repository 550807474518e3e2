#!/usr/bin/env python3
"""The dqos benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload mesh16_sat --seed 1 --seconds 28 --trace 0

Run from the root of a checkout. The first call builds perfbench/ — and
with it the simulator from src/ — into $CARGO_TARGET_DIR (default
.bench_build). Every operation is one simulation run of the workload in
its own dqos_perfbench process. Operations cycle over the workload's
simulation seeds (seed*100 + j, j < sub_seeds) until --seconds have passed
and every seed has run, plus one repeat so determinism is checked on
every run.

--trace 0 prints the end-to-end metrics: host-time medians over all
operations, and the two sim_ metrics as medians over the seeds. --trace 1
also runs one traced operation (spans, post-run audit, layer drivers)
and, if that ran on shards, one shards=1 operation; it prints the
per-layer metrics and writes spans and counters to
.bench_out/<workload>.trace.json.

Every operation is checked: exit status, no out-of-order delivery, no
watchdog, audits passed when the auditor is armed, an empty reservation
ledger after teardown, and a fingerprint and work counts equal to the
first operation on the same seed. Metric names and units come from
BENCHMARK.json; workloads from perfbench/workloads.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OP_TIMEOUT_S = 170
# Counts that must repeat exactly between operations on one seed.
WORK_COUNTS = (
    "events", "shard.windows", "shard.instants", "shard.cross_msgs",
    "host.packets_injected", "qos.flows_admitted", "switchfab.order_errors",
    "switchfab.takeovers", "switchfab.credit_stalls",
)
# Of those, the ones a shards=1 run must reproduce (engine counts differ).
SERIAL_COUNTS = tuple(c for c in WORK_COUNTS if not c.startswith("shard."))


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds the driver; returns its path."""
    out = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = out if out.is_absolute() else ROOT / out
    steps = [["cmake", "--build", str(out), "-j", "4",
              "--target", "dqos_perfbench"]]
    if not (out / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"])
    # The compiler's scratch files stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          env=env).returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")
    return out / "dqos_perfbench"


def op_args(wl, seed, extra=()):
    args = [f"--config={wl['config']}"]
    args += [f"--{k}={v}" for k, v in wl["set"].items()]
    return args + [f"--seed={seed}", *extra]


def run_op(binary, args):
    """One operation in its own process: (result, list of failed checks)."""
    try:
        r = subprocess.run([str(binary), *args], cwd=ROOT, capture_output=True,
                           text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"timed out after {OP_TIMEOUT_S} s"]
    if r.returncode != 0:
        return None, [f"exit status {r.returncode}: {r.stderr.strip()[-300:]}"]
    try:
        res = json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, ["no JSON result line"]
    bad = []
    if res["out_of_order"] != 0:
        bad.append(f"{res['out_of_order']} packets out of order")
    if res["watchdog_fired"]:
        bad.append("deadlock watchdog fired")
    if res["auditor_armed"] and res["audits_passed"] == 0:
        bad.append("auditor armed but no audit passed")
    if res["teardown_checked"] and res["reserved_bps_after_teardown"] != 0.0:
        bad.append(f"{res['reserved_bps_after_teardown']} B/s still reserved "
                   "after teardown")
    return res, bad


def mismatches(res, ref, counts):
    """Differences in fingerprint or work counts between two runs of a seed."""
    bad = []
    if res["fingerprint"] != ref["fingerprint"]:
        bad.append(f"fingerprint {res['fingerprint']} != {ref['fingerprint']}")
    bad += [f"{c} {res[c]} != {ref[c]}" for c in counts if res[c] != ref[c]]
    return bad


class Run:
    """Operations of one benchmark run and their correctness record."""

    def __init__(self, binary, wl, seed):
        self.binary = binary
        self.wl = wl
        self.seeds = [seed * 100 + j for j in range(wl["sub_seeds"])]
        self.ops = []     # (sim seed, result) of every passing operation
        self.first = {}   # sim seed -> first passing result
        self.attempted = 0
        self.failed = 0

    def op(self, seed, extra=(), counts=WORK_COUNTS):
        """Runs and checks one operation; returns its result or None."""
        self.attempted += 1
        res, bad = run_op(self.binary, op_args(self.wl, seed, extra))
        if res is not None and seed in self.first:
            bad += mismatches(res, self.first[seed], counts)
        if bad:
            self.failed += 1
            log(f"operation on seed {seed} {' '.join(extra)} failed: "
                + "; ".join(bad))
            return None
        self.first.setdefault(seed, res)
        return res

    def measure(self, seconds):
        t0 = time.monotonic()
        i = 0
        while i <= len(self.seeds) or time.monotonic() - t0 < seconds:
            seed = self.seeds[i % len(self.seeds)]
            res = self.op(seed)
            if res is not None:
                self.ops.append((seed, res))
            i += 1

    def median(self, key, seed=None):
        vals = [r[key] for s, r in self.ops if seed in (None, s)]
        return statistics.median(vals or [r[key] for _, r in self.ops])

    def end_to_end(self):
        m = {k: self.median(k) for k in
             ("setup_s", "run_s", "events_per_s", "cpu_s", "peak_rss_mb")}
        for k in ("sim_ctrl_p99_us", "sim_mm_miss_rate"):
            m[k] = statistics.median(r[k] for r in self.first.values())
        return m

    def traced(self, workload, names):
        """The traced operation and, when it ran on shards, a shards=1
        operation on the first seed; returns the per-layer metrics."""
        seed = self.seeds[0]
        base_run_s = self.median("run_s", seed)
        t = self.op(seed, ("--trace",))
        if t is None:
            return {}
        m = {k: t[k] for k in names if k in t}
        m["core.ctor_s"] = t["ctor_s"]
        m["core.prepare_s"] = t["prepare_s"]
        m["sim.events"] = t["events"]
        m["trace.overhead_pct"] = (t["run_s"] / base_run_s - 1.0) * 100.0
        m["shard.speedup"] = 0.0  # not applicable to a serial workload
        if t["shard.windows"] > 0:
            serial = self.op(seed, ("--shards=1",), SERIAL_COUNTS)
            if serial is not None:
                m["shard.speedup"] = serial["run_s"] / base_run_s
        write_trace(workload, seed, t, m, self.ops)
        return m


def self_times(spans):
    """Each span's duration minus the union of its children's intervals."""
    out = []
    for idx, s in enumerate(spans):
        kids = sorted((c["start_ns"], c["end_ns"]) for c in spans
                      if c["parent"] == idx)
        covered, edge = 0, s["start_ns"]
        for a, b in kids:
            a = max(a, edge)
            if b > a:
                covered += b - a
                edge = b
        dur = s["end_ns"] - s["start_ns"]
        out.append({**s, "dur_ns": dur, "self_ns": dur - covered})
    return out


def write_trace(workload, seed, traced, metrics, ops):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    doc = {
        "workload": workload,
        "sim_seed": seed,
        "spans": self_times(traced["spans"]),
        "counters": metrics,
        "untraced_ops": [{"sim_seed": s, "setup_s": r["setup_s"],
                          "run_s": r["run_s"], "cpu_s": r["cpu_s"],
                          "fingerprint": r["fingerprint"]} for s, r in ops],
    }
    path = out_dir / f"{workload}.trace.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"trace written to {path.relative_to(ROOT)}; "
        f"trace.overhead_pct = {metrics['trace.overhead_pct']:.2f}")


def bench(binary, bench_spec, wl, workload, seed, seconds, trace):
    """One benchmark run of one workload: the result object run.py prints."""
    run = Run(binary, wl, seed)
    run.measure(seconds)
    log(f"{workload} fingerprints: " + ", ".join(
        f"seed {s} {r['fingerprint']} ({r['events']} events)"
        for s, r in run.first.items()))
    declared = bench_spec["per_layer"] if trace else bench_spec["end_to_end"]
    names = [d["name"] for d in declared]
    values = (run.traced(workload, names) if run.ops and trace
              else run.end_to_end() if run.ops else {})
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in declared if d["name"] in values}
    for d in declared:
        if d["name"] not in values:
            log(f"{workload}: metric {d['name']} not measured")
    return {
        "correct": run.failed == 0 and len(metrics) == len(declared),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload of perfbench/workloads.json, or 'all'")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    spec = json.loads((HERE / "workloads.json").read_text())
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(spec["workloads"]) if a.workload == "all" else [a.workload]
    for name in names:
        if name not in spec["workloads"]:
            sys.exit(f"perfbench: unknown workload {name!r}; one of "
                     + ", ".join(spec["workloads"]) + ", all")
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: no src/ next to perfbench/; run from a checkout")
    seed = spec["seeds"]["default"] if a.seed is None else a.seed
    binary = build()
    results = {name: bench(binary, bench_spec, spec["workloads"][name], name,
                           seed, a.seconds, a.trace) for name in names}
    if a.workload != "all":
        print(json.dumps(results[a.workload]))
        return
    # Every workload, each in its own processes: a table, then all results.
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric:26s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
