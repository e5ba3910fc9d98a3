#!/usr/bin/env python3
"""Compare two sets of bench_e2e results against BENCHMARK.json's bounds.

Each set is a result file or a directory of them. A result file is what
`bench_e2e run --json` writes (one workload's result) or what `bench_e2e
--all --json` writes (a list, one per workload); every result for workload
W in a set is one run of W, in file order. For every (workload, end-to-end
metric) one row is printed with each side's median and quartiles, the change
of the medians, the metric's bound, the larger side's spread, the pairs the
new side won, and a verdict (the rules of the choosing-metrics method):

  REGRESSION  new median worse than base by more than the bound, with both
              sides' spread (quartile distance over median) within it
  unresolved  a side's spread exceeds the bound, so "no change" cannot be
              claimed -- unless every new run beats every base run (better)
  gain        new wins >= 9/10 of the pairs (run i vs run i) and the medians
              differ by more than the base quartile distance
  same        none of the above

A set with more failed checks than the base is a REGRESSION too, and a
workload or metric present on one side only is "missing". Exits 1 when any
row is a regression or missing, 0 otherwise.

Usage: bench_compare.py BASE NEW [--benchmark BENCHMARK.json]
       bench_compare.py --self-test
"""

import argparse
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_BENCHMARK = HERE.parent.parent / "BENCHMARK.json"


def load_runs(path: pathlib.Path) -> dict:
    """{workload: [result, ...]} over a result file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        doc = json.loads(f.read_text(encoding="utf-8"))
        for result in doc if isinstance(doc, list) else [doc]:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def summary(values: list) -> tuple:
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def compare_metric(base: list, new: list, better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    bmed, bq1, bq3 = summary(base)
    nmed, nq1, nq3 = summary(new)
    worse = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (nq3 - nq1) / abs(nmed) if nmed else 0.0)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    all_better = all(sign * (n - b) < 0 for b in base for n in new)
    if spread > bound:
        verdict = "better" if all_better else "unresolved"
    elif worse > bound:
        verdict = "REGRESSION"
    elif wins >= 0.9 * len(pairs) and worse < 0 and abs(nmed - bmed) > bq3 - bq1:
        verdict = "gain"
    else:
        verdict = "same"
    return {"base": (bmed, bq1, bq3), "new": (nmed, nq1, nq3), "worse": worse,
            "spread": spread, "wins": wins, "pairs": len(pairs), "verdict": verdict}


def compare(base_runs: dict, new_runs: dict, spec: dict) -> list:
    rows = []
    for workload in sorted(set(base_runs) | set(new_runs)):
        b, n = base_runs.get(workload, []), new_runs.get(workload, [])
        if not b or not n:
            rows.append({"workload": workload, "metric": "*", "verdict": "missing"})
            continue
        for m in spec["end_to_end"]:
            bv = [r["e2e"][m["name"]]["value"] for r in b if m["name"] in r["e2e"]]
            nv = [r["e2e"][m["name"]]["value"] for r in n if m["name"] in r["e2e"]]
            if not bv or not nv:
                rows.append({"workload": workload, "metric": m["name"], "verdict": "missing"})
                continue
            row = compare_metric(bv, nv, m["better"], m["bound"])
            row.update(workload=workload, metric=m["name"], bound=m["bound"])
            rows.append(row)
        bf, nf = sum(r["failed"] for r in b), sum(r["failed"] for r in n)
        rows.append({"workload": workload, "metric": "failed", "base": (bf, bf, bf),
                     "new": (nf, nf, nf), "worse": float(nf - bf), "spread": 0.0,
                     "wins": 0, "pairs": 0, "bound": 0, "absolute": True,
                     "verdict": "REGRESSION" if nf > bf else "same"})
    return rows


def print_rows(rows: list) -> None:
    print(f"{'workload':<12} {'metric':<15} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8} {'bound':>6} {'spread':>6} "
          f"{'wins':>6}  verdict")
    for r in rows:
        if "base" not in r:
            print(f"{r['workload']:<12} {r['metric']:<15} {'':>30} {'':>30} "
                  f"{'':>8} {'':>6} {'':>6} {'':>6}  {r['verdict']}")
            continue
        fmt = lambda s: f"{s[0]:.4g} [{s[1]:.4g}, {s[2]:.4g}]"
        if r.get("absolute"):  # failed checks: a count, bound 0
            change, bound = f"{r['worse']:+8.0f}", f"{0:6d}"
        else:
            change, bound = f"{100 * r['worse']:+7.1f}%", f"{100 * r['bound']:5.1f}%"
        print(f"{r['workload']:<12} {r['metric']:<15} {fmt(r['base']):>30} "
              f"{fmt(r['new']):>30} {change} {bound} {100 * r['spread']:5.1f}% "
              f"{r['wins']:>2}/{r['pairs']:<3}  {r['verdict']}")


def run(base: pathlib.Path, new: pathlib.Path, benchmark: pathlib.Path) -> tuple:
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    rows = compare(load_runs(base), load_runs(new), spec)
    print_rows(rows)
    regressions = sum(1 for r in rows if r["verdict"] in ("REGRESSION", "missing"))
    unresolved = sum(1 for r in rows if r["verdict"] == "unresolved")
    print(f"{len(rows)} rows: {regressions} regression(s), {unresolved} unresolved")
    return (1 if regressions else 0), rows


def self_test() -> int:
    """Fixture-driven check of every verdict and of the exit code."""
    fx = HERE / "fixtures"
    cases = [  # (new set, expected exit code, {(workload, metric): verdict})
        ("same.json", 0, {("w", "latency_s"): "same", ("w", "qps"): "same"}),
        ("slower.json", 1, {("w", "latency_s"): "REGRESSION", ("w", "qps"): "same"}),
        ("faster.json", 0, {("w", "latency_s"): "gain", ("w", "qps"): "gain"}),
        ("noisy.json", 0, {("w", "latency_s"): "unresolved"}),
        ("failing.json", 1, {("w", "failed"): "REGRESSION"}),
    ]
    problems = []
    for new, want_rc, want in cases:
        print(f"--- base.json vs {new}")
        rc, rows = run(fx / "base.json", fx / new, fx / "benchmark.json")
        got = {(r["workload"], r["metric"]): r["verdict"] for r in rows}
        if rc != want_rc:
            problems.append(f"{new}: exit {rc}, expected {want_rc}")
        for key, verdict in want.items():
            if got.get(key) != verdict:
                problems.append(f"{new}: {key} is {got.get(key)}, expected {verdict}")
    for p in problems:
        print(f"SELF-TEST FAILURE: {p}")
    print(f"self-test: {len(cases)} cases, {len(problems)} failure(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", nargs="?", type=pathlib.Path)
    parser.add_argument("new", nargs="?", type=pathlib.Path)
    parser.add_argument("--benchmark", type=pathlib.Path, default=DEFAULT_BENCHMARK)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.base is None or args.new is None:
        parser.error("BASE and NEW are required")
    return run(args.base, args.new, args.benchmark)[0]


if __name__ == "__main__":
    sys.exit(main())
