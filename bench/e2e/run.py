#!/usr/bin/env python3
"""Entry point that BENCHMARK.json names: one workload, one seed, one run.

Usage (from the repository root):
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Builds bench_e2e and tuckerd (Release) from the checkout's sources into
.bench_build/, prepares the workload's inputs from the seed, runs the
workload for about T measured seconds, and prints as the last line of
stdout one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1, which also writes .bench_build/trace/W.spans.json).
All other output goes to stderr. When no result can be produced (the build
or the run fails) it exits nonzero and prints no result; when the run
produced numbers but a check failed, it prints them with "correct": false
and exits 1.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Run cmd with its stdout sent to our stderr; return the exit code."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
        return 124


def build():
    stamp = BUILD / "configured.stamp"  # written only after a configure succeeds
    if not stamp.exists():
        rc = call(["cmake", "-S", ROOT / "bench" / "e2e", "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], timeout=300)
        if rc != 0:
            return rc
        stamp.touch()
    jobs = str(os.cpu_count() or 1)
    return call(["cmake", "--build", BUILD, "-j", jobs, "--target", "bench_e2e"],
                timeout=850)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    if build() != 0:
        log("build failed")
        return 1
    bench = BUILD / "bench_e2e"
    work = BUILD / "work"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work)]
    if call([bench, "prepare"] + common, timeout=120) != 0:
        log("prepare failed")
        return 1
    result = BUILD / f"result-{args.workload}.json"
    result.unlink(missing_ok=True)
    cmd = [bench, "run"] + common + ["--seconds", str(args.seconds), "--json", str(result)]
    if args.trace:
        cmd += ["--trace", str(BUILD / "trace")]
    rc = call(cmd, timeout=RUN_TIMEOUT_S)
    # Inputs are regenerated from the seed on every run; do not let them pile up.
    shutil.rmtree(work / f"{args.workload}-s{args.seed}", ignore_errors=True)
    if not result.exists():
        log(f"bench_e2e run exited {rc} without a result")
        return 1

    doc = json.loads(result.read_text())
    measured = doc["layers" if args.trace else "e2e"]
    missing = [n for n in names if n not in measured or measured[n]["value"] is None]
    if missing:
        log(f"metrics missing from the run: {', '.join(missing)}")
        return 1
    print(json.dumps({
        "correct": bool(doc["correct"]) and rc == 0,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {n: {"value": measured[n]["value"], "unit": measured[n]["unit"]}
                    for n in names},
    }))
    return 0 if rc == 0 and doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
