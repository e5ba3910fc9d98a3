#!/usr/bin/env python3
"""Line coverage of the library's sources, per src/ directory.

Usage (after a coverage build has run its tests):
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
  cmake --build build-cov -j && (cd build-cov && ctest)
  python3 tests/coverage_summary.py build-cov [--file src/core/hooi.cpp ...]

Runs the installed gcov (--json-format, GCC 9 or later) over every .gcda
file under BUILD_DIR, keeps the lines of files under ROOT/src, and merges
the translation units that share a file (headers): a line counts as
covered when any unit executed it. Prints one row per src/ directory and a
total, then one row per --file. Reports only; it sets no threshold.
"""

import argparse
import collections
import json
import os
import pathlib
import subprocess
import sys


def gcov_documents(gcda_files, gcov):
    """Yield gcov's JSON document for each .gcda file."""
    decoder = json.JSONDecoder()
    batch = 64  # keeps each command line short
    for i in range(0, len(gcda_files), batch):
        out = subprocess.run(
            [gcov, "--json-format", "--stdout"] + gcda_files[i:i + batch],
            check=True, capture_output=True, text=True).stdout
        pos = 0
        while True:
            while pos < len(out) and out[pos].isspace():
                pos += 1
            if pos == len(out):
                break
            doc, pos = decoder.raw_decode(out, pos)
            yield doc


def line_counts(build_dir, src_root, gcov="gcov"):
    """{source path relative to src_root's parent: {line: count}}."""
    gcda = sorted(str(p) for p in pathlib.Path(build_dir).rglob("*.gcda"))
    if not gcda:
        sys.exit(f"no .gcda files under {build_dir}: build with --coverage "
                 "and run the tests first")
    src_root = pathlib.Path(src_root).resolve()
    counts = collections.defaultdict(dict)
    for doc in gcov_documents(gcda, gcov):
        cwd = doc.get("current_working_directory", "")
        for f in doc["files"]:
            path = pathlib.Path(os.path.normpath(os.path.join(cwd, f["file"])))
            if src_root not in path.parents:
                continue
            lines = counts[str(path.relative_to(src_root.parent))]
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[n] = max(lines.get(n, 0), ln["count"])
    return counts


def covered(lines):
    return sum(1 for c in lines.values() if c > 0), len(lines)


def main():
    p = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("build_dir")
    p.add_argument("--root", default=pathlib.Path(__file__).resolve().parents[1],
                   help="repository root (default: this script's parent's parent)")
    p.add_argument("--file", action="append", default=[],
                   help="also print this file's coverage (path from the root)")
    p.add_argument("--gcov", default="gcov")
    args = p.parse_args()

    counts = line_counts(args.build_dir, pathlib.Path(args.root) / "src", args.gcov)
    by_dir = collections.defaultdict(lambda: [0, 0])
    for path, lines in counts.items():
        hit, total = covered(lines)
        d = by_dir[pathlib.Path(path).parts[1]]
        d[0] += hit
        d[1] += total

    def row(name, hit, total):
        pct = 100.0 * hit / total if total else 0.0
        print(f"{name:<28} {hit:>7} / {total:<7} {pct:6.1f}%")

    print(f"{'directory':<28} {'lines covered':>17} {'%':>7}")
    for d in sorted(by_dir):
        row(f"src/{d}/", *by_dir[d])
    row("total", sum(v[0] for v in by_dir.values()),
        sum(v[1] for v in by_dir.values()))
    for f in args.file:
        if f not in counts:
            print(f"{f}: no coverage data", file=sys.stderr)
            continue
        row(f, *covered(counts[f]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
