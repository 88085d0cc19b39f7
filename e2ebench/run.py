#!/usr/bin/env python3
"""End-to-end benchmark runner for the fedtiny library.

Usage, from the repository root:

    python3 e2ebench/run.py --workload fedtiny_tiny|fleet_int8|serve_swap \
        --seed N --seconds S --trace 0|1

Builds e2ebench/ (and the library from src/) into .bench_build/e2ebench on
first use, runs one workload, checks that the binary's metrics are exactly
the ones BENCHMARK.json declares, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones; a traced run also writes
its spans to .bench_out/ as Chrome trace JSON and reports the tracing
overhead against an untraced run of the same workload, seed and length.
Exits non-zero, printing no result, when the build or a check fails.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "e2ebench")
RUN_TIMEOUT_S = 170
# The end-to-end metric whose traced/untraced ratio is the tracing overhead.
PRIMARY = {"fedtiny_tiny": "pipeline_s", "fleet_int8": "pipeline_s", "serve_swap": "p50_ms"}


def fail(msg, code=2):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "fl", "trainer.h")):
        fail("library sources (src/) not found next to e2ebench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = [
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
        ]
        if os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps = steps[1:]
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(cmd))


def run_binary(workload, seed, seconds, trace):
    work = os.path.join(OUT, f"{workload}-{seed}")
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", work]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, f"trace-{workload}-{seed}.json")]
    # The library's FEDTINY_* knobs (kernel mode, thread budget, OpenMP
    # threads) would change what is measured; workloads set their own.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDTINY_")}
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 3)
    lines = [ln for ln in done.stdout.splitlines() if ln.strip()]
    if done.returncode != 0 or not lines:
        fail(f"{workload} failed (exit {done.returncode})", 1)
    return json.loads(lines[-1])


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    result = run_binary(args.workload, args.seed, args.seconds, args.trace == 1)
    if not result.get("correct"):
        fail(f"{args.workload}: output check failed", 1)
    metrics = result["metrics"]

    cache = os.path.join(OUT, f"untraced-{args.workload}-{args.seed}-{args.seconds:g}.json")
    if args.trace:
        if os.path.isfile(cache):
            with open(cache) as f:
                untraced = json.load(f)
        else:
            untraced = run_binary(args.workload, args.seed, args.seconds, False)["metrics"]
        print(f"{'tracing overhead':24s} {'untraced':>14s} {'traced':>14s} {'diff':>12s}",
              file=sys.stderr)
        for name, m in result["traced_e2e"].items():
            base = untraced[name]["value"]
            print(f"{name:24s} {base:14.6g} {m['value']:14.6g} {m['value'] - base:12.4g}",
                  file=sys.stderr)
        primary = PRIMARY[args.workload]
        base = untraced[primary]["value"]
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (result["traced_e2e"][primary]["value"] - base) / base, "unit": "%"}
    else:
        with open(cache, "w") as f:
            json.dump(metrics, f)

    want = declared("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(want):
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(metrics))}, "
             f"undeclared {sorted(set(metrics) - set(want))}", 4)
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']} != declared {unit}", 4)
        if not isinstance(metrics[name]["value"], (int, float)) or not math.isfinite(
                metrics[name]["value"]):
            fail(f"{name}: value {metrics[name]['value']} is not a finite number", 4)
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {n: metrics[n] for n in want}}))


if __name__ == "__main__":
    main()
