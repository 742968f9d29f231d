#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck [--seed <n>] [--seconds <s>]

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. A per-layer metric of a layer the workload
never calls reads 0. --selfcheck runs every workload twice at one seed and
once at the next seed, and checks that the work counters repeat exactly and
that the inputs change with the seed. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_LIMIT_S = 170  # a run may take 180 s ...
FIRST_RUN_LIMIT_S = 880  # ... or 900 s when it configures and builds
BUILD_LIMIT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures once, then builds incrementally. Returns the binary path
    and whether this call configured a fresh build tree."""
    out = build_dir()
    fresh = not (out / "CMakeCache.txt").exists()
    if fresh:
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_LIMIT_S).returncode:
            shutil.rmtree(out, ignore_errors=True)
            fail("configure failed")
    jobs = str(min(3, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                      stdout=sys.stderr, timeout=BUILD_LIMIT_S).returncode:
        fail("build failed")
    return out / "perfbench", fresh


def run_binary(binary, workload, seed, seconds, trace, budget_s):
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--trace-dir", str(traces)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget_s)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {budget_s:.0f} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{workload} exited with code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def select_metrics(spec, raw, trace):
    """The end-to-end or per-layer metrics of BENCHMARK.json, by name."""
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, mv in raw["metrics"].items():
        if name not in known:
            fail(f"metric {name} is not in BENCHMARK.json")
        if mv["unit"] != known[name]:
            fail(f"metric {name} has unit {mv['unit']}, BENCHMARK.json says {known[name]}")
    chosen = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        if m["name"] in raw["metrics"]:
            chosen[m["name"]] = raw["metrics"][m["name"]]
        elif trace:
            chosen[m["name"]] = {"value": 0.0, "unit": m["unit"]}
        else:
            fail(f"end-to-end metric {m['name']} missing from {raw['workload']}")
    return chosen


def selfcheck(spec, binary, seed, seconds):
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run_binary(binary, w, s, seconds, 0, RUN_LIMIT_S)[1]
                for s in (seed, seed, seed + 1)]
        same = runs[0]["repeatable"] == runs[1]["repeatable"]
        digests = [r["input_digest"] for r in runs]
        inputs_ok = digests[0] == digests[1] and digests[0] != digests[2]
        exact = all(r["failed"] == 0 for r in runs)
        ok &= same and inputs_ok and exact
        print(f"selfcheck {w}: counters {'repeat' if same else 'DIFFER'} "
              f"{runs[0]['repeatable']} vs {runs[1]['repeatable']}; "
              f"inputs {'change with the seed' if inputs_ok else 'WRONG'}; "
              f"{'exact' if exact else 'FAILURES'}")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    start = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary, fresh = build()

    if args.selfcheck:
        return selfcheck(spec, binary, args.seed, args.seconds or 1)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    limit = FIRST_RUN_LIMIT_S if fresh else RUN_LIMIT_S
    budget = limit - (time.monotonic() - start)
    human, raw = run_binary(binary, args.workload, args.seed, seconds,
                            args.trace, budget)
    for line in human:
        print(line)
    for why in raw["failures"]:
        print(f"perfbench: {args.workload}: {why}", file=sys.stderr)
    result = {
        "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": select_metrics(spec, raw, args.trace),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
