#!/usr/bin/env python3
"""Alternating-pairs A/B of the end-to-end benchmark: a parent revision
against the working tree.

    python3 bench/ab_pairs.py --parent REV --workload W
        [--pairs 10] [--seconds 30] [--seed 90210] [--scratch DIR]
    python3 bench/ab_pairs.py --selftest

Exports REV with `git archive` into a scratch directory (default
.bench_build/ab/<sha>, reused while it holds the same commit), then runs
`perfbench/run.py --trace 0` there and in the working tree, alternating
which side goes first in each pair (the box drifts, so only pairs compare).
Each side first runs once for one second and that run is discarded: it pays
for the side's build and warms its caches.  Each run's last stdout line is
the result JSON; build output goes to parent.log and change.log beside the
export directory.

Prints every pair's value of each end-to-end metric BENCHMARK.json names,
then per metric the parent median and interquartile range, the change
median, and wins/n: the pairs where the change is strictly better in the
direction BENCHMARK.json gives (`better`).  Also prints failed/attempted
operations per side.  The tool reads perfbench/ and BENCHMARK.json and
changes neither.  --selftest checks the quartile and wins arithmetic on
fixed inputs.
"""
import argparse
import io
import json
import os
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def wins(parent, change, better):
    """Pairs where the change side is strictly better; pairs missing either
    value count in n but never as wins."""
    won = 0
    for p, c in zip(parent, change):
        if p is None or c is None:
            continue
        if (c < p) if better == "lower" else (c > p):
            won += 1
    return won, len(parent)


def summarize(parent, change, better):
    """(parent median, q1, q3, change median, wins, n) of one metric."""
    p = [v for v in parent if v is not None]
    c = [v for v in change if v is not None]
    won, n = wins(parent, change, better)
    return (quantile(p, 0.5), quantile(p, 0.25), quantile(p, 0.75),
            quantile(c, 0.5), won, n)


def selftest():
    failures = []

    def check(name, got, want):
        if abs(got - want) > 1e-12:
            failures.append("%s: got %r, want %r" % (name, got, want))

    ten = [7, 1, 10, 4, 2, 9, 3, 8, 6, 5]
    check("median of 1..10", quantile(ten, 0.5), 5.5)
    check("q1 of 1..10", quantile(ten, 0.25), 3.25)
    check("q3 of 1..10", quantile(ten, 0.75), 7.75)
    check("median of odd count", quantile([3, 1, 2], 0.5), 2.0)
    check("quantile of one value", quantile([4.0], 0.25), 4.0)
    check("min", quantile(ten, 0.0), 1.0)
    check("max", quantile(ten, 1.0), 10.0)

    parent = [10.0, 10.0, 10.0, 10.0]
    change = [9.0, 11.0, 10.0, None]
    got = wins(parent, change, "lower")
    if got != (1, 4):
        failures.append("lower-is-better wins: got %r, want (1, 4)" % (got,))
    got = wins(parent, change, "higher")
    if got != (1, 4):
        failures.append("higher-is-better wins: got %r, want (1, 4)" % (got,))
    got = summarize([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 2.5, 3.0, 3.0, 6.0],
                    "lower")
    if got != (3.0, 2.0, 4.0, 3.0, 2, 5):
        failures.append("summarize: got %r" % (got,))
    for failure in failures:
        print("FAIL " + failure)
    print("ab_pairs selftest: %s" % ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def export(rev, scratch):
    """Extracts `rev` into scratch (reused when it already holds it)."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                         cwd=ROOT, check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    directory = scratch or os.path.join(ROOT, ".bench_build", "ab", sha)
    marker = os.path.join(directory, ".ab_pairs_rev")
    if os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == sha:
                return sha, directory
        sys.exit("ab_pairs: %s holds another revision; pick a new --scratch"
                 % directory)
    os.makedirs(directory, exist_ok=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(directory, filter="data")
        else:
            tar.extractall(directory)
    with open(marker, "w") as f:
        f.write(sha + "\n")
    return sha, directory


def run_side(directory, log_path, workload, seed, seconds):
    """One perfbench run; returns its result JSON ({} when it printed none)."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    with open(log_path, "a") as log:
        proc = subprocess.run(argv, cwd=directory, stdout=subprocess.PIPE,
                              stderr=log, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        return {}


def metric(result, name):
    entry = result.get("metrics", {}).get(name)
    return entry.get("value") if isinstance(entry, dict) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=90210)
    parser.add_argument("--scratch",
                        help="export directory (default .bench_build/ab/SHA)")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.parent is None or args.workload is None:
        parser.error("--parent and --workload are required")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    sha, parent_dir = export(args.parent, args.scratch)
    logs = os.path.dirname(os.path.abspath(parent_dir))
    sides = {"parent": (parent_dir, os.path.join(logs, "parent.log")),
             "change": (ROOT, os.path.join(logs, "change.log"))}
    print("parent %s (%s), change = working tree; workload %s, seed %d, "
          "%g s, %d pairs" % (sha[:12], parent_dir, args.workload, args.seed,
                              args.seconds, args.pairs), flush=True)

    for side, (directory, log_path) in sides.items():
        run_side(directory, log_path, args.workload, args.seed, 1.0)

    values = {side: {m["name"]: [] for m in end_to_end} for side in sides}
    ops = {side: [0, 0] for side in sides}  # failed, attempted
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            directory, log_path = sides[side]
            results[side] = run_side(directory, log_path, args.workload,
                                     args.seed, args.seconds)
        line = ["pair %2d (%s first)" % (pair + 1, order[0])]
        for side in sides:
            ops[side][0] += int(results[side].get("failed", 0))
            ops[side][1] += int(results[side].get("attempted", 0))
            if not results[side].get("correct", False):
                line.append("[%s run incorrect]" % side)
        for m in end_to_end:
            p = metric(results["parent"], m["name"])
            c = metric(results["change"], m["name"])
            values["parent"][m["name"]].append(p)
            values["change"][m["name"]].append(c)
            line.append("%s %s -> %s" % (m["name"], p, c))
        print("  ".join(line), flush=True)

    print()
    print("%-12s %-5s %14s %27s %14s %8s %6s" %
          ("metric", "unit", "parent median", "parent IQR", "change median",
           "change", "wins"))
    for m in end_to_end:
        med, q1, q3, cmed, won, n = summarize(
            values["parent"][m["name"]], values["change"][m["name"]],
            m["better"])
        delta = (cmed - med) / med * 100.0 if med else float("nan")
        print("%-12s %-5s %14.4f %12.4f – %12.4f %14.4f %+7.2f%% %3d/%-3d" %
              (m["name"], m["unit"], med, q1, q3, cmed, delta, won, n))
    for side in sides:
        failed, attempted = ops[side]
        print("%s: failed/attempted %d/%d" % (side, failed, attempted))
    return 0


if __name__ == "__main__":
    sys.exit(main())
