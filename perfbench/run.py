#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the programs under test and the axbench driver from this checkout's
sources (Release, into .bench_build/perfbench; the first run pays for the
build, later runs reuse it), then hands over to axbench, whose last stdout
line is the result JSON.  Build output goes to stderr.  --selftest runs the
driver's unit tests and a short mode of every workload, traced and not,
checking that each metric BENCHMARK.json names is printed with its unit.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
SCRATCH = os.path.join(".bench_build", "run")
RESULTS = os.path.join(".bench_build", "results")
WORKLOADS = ("sweep_mult8", "serve_mixed")


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool bring everything up to date."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        log("no repository sources beside perfbench/; nothing to build")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=300).returncode != 0:
            log("configure failed")
            return False
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr,
                      timeout=850).returncode != 0:
        log("build failed")
        return False
    return True


def axbench():
    return os.path.join(BUILD, "axbench")


def selftest():
    """Unit tests, then every workload in short mode, traced and untraced."""
    if subprocess.run([axbench(), "--unit-tests"]).returncode != 0:
        return 1
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [axbench(), "--workload", workload, "--seed", "7",
                 "--seconds", "2", "--trace", trace, "--short",
                 "--scratch", SCRATCH, "--results", RESULTS],
                stdout=subprocess.PIPE, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            printed = {name: m.get("unit")
                       for name, m in result.get("metrics", {}).items()}
            ok = (proc.returncode == 0 and result.get("correct") is True and
                  printed == expected[trace] and
                  all(name in proc.stdout for name in expected[trace]))
            if not ok:
                failures += 1
                missing = sorted(set(expected[trace]) ^ set(printed))
                log("FAIL %s trace %s: exit %d, mismatched metrics %s" %
                    (workload, trace, proc.returncode, missing))
            else:
                log("ok   %s trace %s" % (workload, trace))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=("0", "1"))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)  # short relative socket paths live under .bench_build
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    # A child, not exec: rss_peak_mb reads the driver's reaped descendants,
    # which must not include this script's compiler processes.
    argv = [axbench(), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace,
            "--scratch", SCRATCH, "--results", RESULTS]
    sys.stdout.flush()
    return subprocess.run(argv).returncode


if __name__ == "__main__":
    sys.exit(main())
