#!/usr/bin/env python3
"""Short-mode self-test of the benchmark.

Builds the benchmark, runs every workload briefly in both modes, and
checks that each metric named in BENCHMARK.json is printed with its unit
and that every correctness check passed. Run from the repository root:

    python3 perfbench/selftest.py

Exits with status 1 on the first run that fails.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]
# Runnable workloads; saga_wal is not in BENCHMARK.json (see README.md)
# but must still run clean.
EXTRA = ["saga_wal"]
SECONDS = "2"


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def check_run(workload, trace, declared):
    cmd = COMMAND + ["--workload", workload, "--seed", "3",
                     "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        fail(f"{workload} trace={trace} exited {out.returncode}: "
             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace} printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True:
        failed = [l for l in lines if "CHECK FAILED" in l]
        fail(f"{workload} trace={trace}: correctness checks failed: "
             f"{failed[:5]}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload}: attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        fail(f"{workload}: failed {result['failed']!r}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        fail(f"{workload} trace={trace}: metric names differ: "
             f"missing {sorted(set(want) - set(metrics))}, "
             f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if m.get("unit") != want[name]:
            fail(f"{workload}: {name} unit {m.get('unit')!r}, "
                 f"expected {want[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            fail(f"{workload}: {name} value {m.get('value')!r}")
    if trace == 0:
        for name in want:
            if name != "ok_ratio" and metrics[name]["value"] <= 0:
                fail(f"{workload}: end-to-end {name} reads "
                     f"{metrics[name]['value']}")
    print(f"selftest: ok {workload} trace={trace} "
          f"({result['attempted']} attempted, {result['failed']} failed)")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]] + EXTRA
    for workload in workloads:
        check_run(workload, 0, bench["end_to_end"])
        check_run(workload, 1, bench["per_layer"])
    print("selftest: all workloads passed")


if __name__ == "__main__":
    main()
