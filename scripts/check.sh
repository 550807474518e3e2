#!/usr/bin/env bash
# Tier-1 verification: build + full test suite under both sanitizers, then
# a Release perf smoke. bench_kernel --quick must produce valid JSON (not
# number-gated); the *datapath* bench IS number-gated: a fresh quick run
# must stay within 10% events/s of the best-known committed result for
# this machine in BENCH_history.jsonl (see the gate below).
#
#   scripts/check.sh            # lint + asan + ubsan presets, perf smoke
#   scripts/check.sh asan       # just one preset (skips the perf smoke)
#   scripts/check.sh lint       # dqos_lint + clang-tidy + format check only
#   scripts/check.sh tsan       # ThreadSanitizer: full suite + sweep and
#                               # sharded-engine smokes
#
# Perf-trend refresh workflow (after a PR that moves performance):
#   cmake --preset bench && cmake --build --preset bench --target bench_datapath
#   scripts/bench_report.py --bench build-bench/bench/bench_datapath \
#       --sections mesh16_simple,mesh16_advanced,mesh16_heap \
#       --out BENCH_datapath.json --history BENCH_history.jsonl --label "PR N"
# and commit both files. Every *full* run appends one JSONL line (machine
# label + commit + events/s); the gate picks the per-section maximum over
# full runs recorded for the current machine, so a slow ratchet between
# refresh PRs cannot hide. On a machine with no history yet, the gate
# reports informationally and passes — the first committed full run arms it.
#
# Death tests exercise contract aborts on purpose; ASAN's allocator is told
# not to treat those intentional aborts as leaks.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=(lint asan ubsan)
run_perf_smoke=1
if [[ $# -gt 0 ]]; then
  presets=("$@")
  run_perf_smoke=0
fi

export ASAN_OPTIONS=abort_on_error=0
export UBSAN_OPTIONS=print_stacktrace=1
# die_after_fork=0: death tests fork on purpose.
export TSAN_OPTIONS="suppressions=$PWD/tsan.supp history_size=4 die_after_fork=0"

for preset in "${presets[@]}"; do
  if [[ $preset == lint ]]; then
    # Static legs (DESIGN.md §9, §15): dqos_lint runs the per-file rules
    # AND the whole-program transitive rules (call-graph reachability) in
    # one pass, gated on lint_baseline.txt, with --check-suppressions so a
    # marker that no longer suppresses anything fails the leg too. The run
    # also drops a SARIF artifact for CI annotation. clang-tidy runs when
    # installed, then the formatting diff vs main. No sanitizer build
    # needed — the default preset hosts the lint tooling.
    echo "=== [lint] dqos_lint whole-program + clang-tidy baseline ==="
    cmake --preset default
    cmake --build --preset default --target dqos_lint -j "$(nproc)"
    lint_t0=$(date +%s.%N)
    build/tools/dqos_lint --root=. --baseline=lint_baseline.txt \
        --check-headers --check-suppressions \
        --sarif=build/dqos_lint.sarif
    lint_t1=$(date +%s.%N)
    echo "dqos_lint whole-program pass: $(awk -v a="$lint_t0" -v b="$lint_t1" \
        'BEGIN{printf "%.1fs", b-a}') (SARIF: build/dqos_lint.sarif)"
    # Self-lint: the analyzer's own sources must hold to the same rules it
    # enforces — a separate invocation scoped to tools/lint so a regression
    # there is named explicitly rather than folded into the tree-wide pass.
    echo "=== [lint] self-lint (tools/lint) ==="
    build/tools/dqos_lint --root=. --check-suppressions \
        tools/lint tools/dqos_lint.cpp
    cmake --build --preset default --target lint
    echo "=== [lint] format check ==="
    scripts/format_check.sh
    continue
  fi
  echo "=== [$preset] configure ==="
  cmake --preset "$preset"
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$(nproc)"
  echo "=== [$preset] ctest ==="
  ctest --preset "$preset" -j "$(nproc)"
done

if [[ " ${presets[*]} " == *" tsan "* ]]; then
  # Multi-threaded sweep smoke under TSAN: four worker threads fanning
  # out full simulator replicas — the exact concurrency production sweeps
  # use. ctest above already covers SweepDeterminism; this drives the
  # real CLI end to end (EXPERIMENTS.md S1).
  echo "=== [tsan] 4-thread sweep smoke ==="
  DQOS_SWEEP_THREADS=4 build-tsan/tools/dqos_sweep --topology=single \
      --hosts=4 --loads=0.2,0.3,0.4,0.5 --archs=simple,advanced \
      --warmup-ms=0.2 --measure-ms=1 --drain-ms=0.5 --no-video > /dev/null
  echo "tsan sweep smoke OK"

  # Sharded-engine smoke under TSAN: four shard calendars with worker
  # threads *forced* (shard_threads=1 overrides the single-core auto
  # fallback), so the window barrier, mailbox handoff and pool lanes run
  # genuinely concurrent even on a one-core host (DESIGN.md §12).
  echo "=== [tsan] sharded-engine smoke (4 shards, forced worker threads) ==="
  build-tsan/tools/dqos_sim --config=configs/mesh16.cfg --shards=4 \
      --shard-threads=1 --measure-ms=2 > /dev/null
  echo "tsan shard smoke OK"

  # The same engine under the three-phase churn scenario: phase and churn
  # events are serial instants, so the flush of every shard's pending mail
  # before each instant (and its hand-back to the workers) runs under real
  # concurrency here.
  echo "=== [tsan] sharded churn-scenario smoke (4 shards, worker threads) ==="
  build-tsan/tools/dqos_sim --scenario=configs/mesh16_churn.cfg --shards=4 \
      --shard-threads=1 > /dev/null
  echo "tsan shard churn smoke OK"
fi

if [[ " ${presets[*]} " == *" asan "* ]]; then
  # Churn-scenario smoke under ASAN: the full three-phase mesh16 scenario
  # (mid-run admits, releases, retargets) must run clean and hand back
  # every reserved byte at teardown (EXPERIMENTS.md C1).
  echo "=== [asan] churn scenario smoke ==="
  churn_out=$(build-asan/tools/dqos_sim --scenario=configs/mesh16_churn.cfg)
  echo "$churn_out" | tail -1
  if ! grep -q "reserved 0.0 B/s after" <<<"$churn_out"; then
    echo "churn smoke: reserved bandwidth did not return to zero" >&2
    exit 1
  fi

  # Overload-degradation smoke under ASAN: 1.2x-capacity phase plus a
  # transient-fault phase with expiry, backoff retries, high-water load
  # shedding and the invariant auditor at its tightest practical epoch
  # (EXPERIMENTS.md O1). An AuditError exits nonzero and fails the check.
  echo "=== [asan] overload scenario smoke ==="
  overload_out=$(build-asan/tools/dqos_sim \
      --scenario=configs/mesh16_overload.cfg --audit-epoch-us=100)
  echo "$overload_out" | grep -E "overload:|backpressure:"
  if ! grep -q "reserved 0.0 B/s after" <<<"$overload_out"; then
    echo "overload smoke: reserved bandwidth did not return to zero" >&2
    exit 1
  fi
  if grep -qE "backpressure:.* 0 audits passed" <<<"$overload_out"; then
    echo "overload smoke: the invariant auditor never ran" >&2
    exit 1
  fi
fi

if [[ $run_perf_smoke -eq 1 ]]; then
  echo "=== [bench] Release perf smoke ==="
  cmake --preset bench
  cmake --build --preset bench \
      --target bench_kernel bench_datapath bench_scaling dqos_sim_tool \
      -j "$(nproc)"

  # The phased scenario path at Release optimization levels: same churn
  # config as the ASAN smoke, shortened so it adds seconds, not minutes.
  build-bench/tools/dqos_sim --scenario=configs/mesh16_churn.cfg \
      --measure-ms=4 --drain-ms=1 --phase.1.start-ms=1 --phase.2.start-ms=3 \
      > /dev/null
  echo "scenario smoke OK (Release)"

  # The bench preset builds with IPO, which hides some GCC -O2/-O3
  # diagnostics (e.g. -Werror=restrict inside inlined std::string
  # concatenation). A plain -DCMAKE_BUILD_TYPE=Release build of the CLI
  # tools keeps that configuration warning-clean under -Werror too.
  echo "=== [bench] plain Release build of the CLI tools (-Werror) ==="
  cmake -S . -B build-release -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release --target dqos_sim_tool dqos_topo_tool \
      -j "$(nproc)"
  echo "plain Release tools build OK"

  smoke_json=build-bench/bench_kernel_smoke.json
  build-bench/bench/bench_kernel --quick --json="$smoke_json"
  python3 -m json.tool "$smoke_json" > /dev/null
  echo "perf smoke OK: $smoke_json"

  # Regression gate (Release preset only): a fresh quick run of the
  # datapath bench must stay within 10% events/s of the *best-known*
  # committed result for this machine in BENCH_history.jsonl — not just
  # the last refresh — so regressions cannot ratchet in across PRs.
  # Quick runs are noisy, so only a clear slide fails. Machines with no
  # history entries get an informational comparison against the committed
  # BENCH_datapath.json instead (cross-machine numbers don't gate); run
  # the refresh workflow in the header to arm the gate on a new machine.
  gate_json=build-bench/bench_datapath_smoke.json
  build-bench/bench/bench_datapath --quick --json="$gate_json"
  machine=$(python3 scripts/bench_report.py --print-machine)
  python3 - "$gate_json" BENCH_history.jsonl BENCH_datapath.json "$machine" <<'PYGATE'
import json, sys
fresh = json.load(open(sys.argv[1]))
machine = sys.argv[4]

# Best-known events/s per section: max over *full* runs on this machine.
best = {}
try:
    with open(sys.argv[2]) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            e = json.loads(line)
            if e.get("machine") != machine or e.get("quick"):
                continue
            for name, ips in e.get("events_per_sec", {}).items():
                if name in fresh and ips > best.get(name, 0.0):
                    best[name] = ips
except FileNotFoundError:
    pass

if best:
    failed = False
    for name, ref in sorted(best.items()):
        got = fresh[name]["events_per_sec"]
        verdict = "OK" if got >= 0.9 * ref else "REGRESSION"
        failed |= verdict == "REGRESSION"
        print(f"  {name:<18} {got:>12.0f} ev/s vs best-known {ref:>12.0f} [{verdict}]")
    if failed:
        sys.exit("bench gate: >10% events/s regression vs best-known "
                 "(BENCH_history.jsonl, machine '" + machine + "')")
else:
    print(f"  bench gate: no full-run history for machine '{machine}';")
    print("  informational comparison vs committed BENCH_datapath.json:")
    committed = json.load(open(sys.argv[3]))
    for name, sec in committed.items():
        if not isinstance(sec, dict) or "current" not in sec:
            continue
        ref = sec["current"]["events_per_sec"]
        got = fresh[name]["events_per_sec"]
        print(f"  {name:<18} {got:>12.0f} ev/s vs committed {ref:>12.0f} [info]")
    print("  (run the refresh workflow in the script header to arm the gate)")
PYGATE
  echo "bench gate OK: $gate_json"

  # Scaling gate (core-count gated): on a multi-core machine, 2 shards
  # with auto worker threads must stay within 10% of the serial engine on
  # the quick scaling bench — the parallel machinery has to at least pay
  # for itself before any PR can lean on it. A single-core host cannot
  # show speedup (the inline engine adds real window-barrier overhead, see
  # EXPERIMENTS.md P1), so there the ratio prints informationally only.
  # Scale smoke (DESIGN.md §13, EXPERIMENTS.md SC1): a 512-host 8-ary
  # 3-tree churn scenario with hierarchical pod admission, bounded fanout,
  # the sharded engine and the invariant auditor armed — gated on peak RSS
  # (getrusage of the child; /usr/bin/time is not guaranteed present) and
  # on the usual exact-zero teardown + auditor-ran checks. 192 MB is ~2x
  # the measured footprint; the full 128/512/1024 bytes/host curve is
  # bench_scale's job, this leg just keeps the 512-host config runnable
  # and its memory from ratcheting.
  echo "=== [bench] 512-host scale smoke (RSS-gated) ==="
  scale_out=$(python3 - <<'PYRSS'
import resource, subprocess, sys
r = subprocess.run(["build-bench/tools/dqos_sim",
                    "--scenario=configs/scale512_churn.cfg"],
                   capture_output=True, text=True)
sys.stdout.write(r.stdout)
if r.returncode != 0:
    sys.exit(f"scale smoke: dqos_sim exited {r.returncode}\n{r.stderr}")
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
cap_mb = 192.0
print(f"scale smoke peak RSS: {peak_mb:.1f} MB (cap {cap_mb:.0f} MB)")
if peak_mb > cap_mb:
    sys.exit(f"scale smoke: peak RSS {peak_mb:.1f} MB exceeds {cap_mb:.0f} MB")
PYRSS
  )
  echo "$scale_out" | grep -E "churn:|peak RSS"
  if ! grep -q "reserved 0.0 B/s after" <<<"$scale_out"; then
    echo "scale smoke: reserved bandwidth did not return to zero" >&2
    exit 1
  fi
  if ! grep -qE "backpressure:.* [1-9][0-9]* audits passed" <<<"$scale_out"; then
    echo "scale smoke: the invariant auditor never ran" >&2
    exit 1
  fi
  echo "scale smoke OK (512 hosts, hierarchical admission)"

  scaling_json=build-bench/bench_scaling_smoke.json
  build-bench/bench/bench_scaling --quick --json="$scaling_json"
  python3 - "$scaling_json" <<'PYSCALE'
import json, os, sys
doc = json.load(open(sys.argv[1]))
cores = os.cpu_count() or 1
s1 = doc["shards_1"]["events_per_sec"]
s2 = doc["shards_2"]["events_per_sec"]
ratio = s2 / s1 if s1 > 0 else 0.0
if cores <= 1:
    print(f"  scaling gate: 1 core: shards_2/shards_1 = {ratio:.2f}x "
          "[info only — inline engine, overhead expected]")
else:
    verdict = "OK" if ratio >= 0.9 else "REGRESSION"
    print(f"  scaling gate: {cores} cores: shards_2/shards_1 = {ratio:.2f}x "
          f"[{verdict}]")
    if verdict == "REGRESSION":
        sys.exit("scaling gate: shards=2 is more than 10% slower than the "
                 "serial engine on a multi-core machine")
PYSCALE
  echo "scaling gate OK: $scaling_json"
fi

echo "=== all checks passed ==="
