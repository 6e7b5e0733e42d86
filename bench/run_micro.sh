#!/usr/bin/env sh
# Runs the micro-benchmark suite and *appends* a tagged run to
# BENCH_micro.json at the repo root, so the file holds the actual perf
# trajectory the ROADMAP tracks (one entry per PR / build profile) instead
# of only the latest numbers.  Each appended run records the git SHA, a
# UTC timestamp, an optional profile tag, a box fingerprint (CPU model,
# logical CPUs, SIMD levels) and the google-benchmark context + results.
#
# With --check the script instead *gates*: the fresh run is compared
# against a previous tagged run in BENCH_micro.json (the most recent tag,
# or the one named by --against) and the script fails when any watched
# benchmark regressed by more than 25% — so perf PRs cannot silently
# regress the levers the ROADMAP tracks.  Check mode never appends.
#
# Usage:  bench/run_micro.sh [build-dir] [--tag name] [--threads N] [args...]
#         bench/run_micro.sh [build-dir] --check [--against tag] [args...]
#         bench/run_micro.sh --list-runs
#
# --list-runs prints one line per recorded run (tag, sha, date, benchmark
# count) without running anything — the quick answer to "which baselines
# can --against name?".
#
# --threads N sets AXC_BENCH_THREADS for the run: the *_mt benches
# (bm_sweep_session_mt, bm_server_hit_mc) then measure at N
# workers/connections instead of their default sweep — the knob for
# recording a many-core trajectory point on a bigger box.
#
# Examples:
#   bench/run_micro.sh                                  # default build dir
#   bench/run_micro.sh build-native --tag native        # -march=native pair
#   bench/run_micro.sh --benchmark_filter=wmed          # forwarded args
#   bench/run_micro.sh build --tag pr9-mt --threads 8   # 8-worker MT point
#   bench/run_micro.sh build --check --against pr4      # regression gate
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir="$repo_root/build"
# A first argument that is not a flag names the build directory.
if [ $# -gt 0 ]; then
  case "$1" in
    -*) ;;
    *) build_dir=$1; shift ;;
  esac
fi

tag=""
check=0
against=""
list_runs=0
while [ $# -gt 0 ]; do
  case "$1" in
    --tag)
      tag=$2
      shift 2
      ;;
    --check)
      check=1
      shift
      ;;
    --list-runs)
      list_runs=1
      shift
      ;;
    --against)
      against=$2
      shift 2
      ;;
    --threads)
      AXC_BENCH_THREADS=$2
      export AXC_BENCH_THREADS
      shift 2
      ;;
    *)
      break
      ;;
  esac
done

if [ "$check" = 1 ] && [ -n "$tag" ]; then
  echo "error: --tag and --check are mutually exclusive (check mode never" >&2
  echo "       appends to BENCH_micro.json)" >&2
  exit 2
fi
if [ "$check" = 0 ] && [ -n "$against" ]; then
  echo "error: --against only applies to --check (without it the script" >&2
  echo "       would record a run instead of gating)" >&2
  exit 2
fi

# --list-runs needs only the trajectory file, not a built benchmark binary.
if [ "$list_runs" = 1 ]; then
  python3 - "$repo_root/BENCH_micro.json" <<'PY'
import json
import os
import sys

path = sys.argv[1]
if not os.path.exists(path):
    sys.exit(f"list-runs: {path} not found (record one first: "
             "bench/run_micro.sh --tag <name>)")
if os.path.getsize(path) == 0:
    sys.exit(f"list-runs: {path} is empty — remove it and re-record")
try:
    with open(path) as f:
        trajectory = json.load(f)
except json.JSONDecodeError as err:
    sys.exit(f"list-runs: {path} is not valid JSON ({err}) — "
             "fix or remove it")
if not isinstance(trajectory, dict):
    sys.exit(f"list-runs: {path} is not a JSON object — unrecognized layout")
runs = trajectory.get("runs", [trajectory] if "benchmarks" in trajectory
                      else [])
if not runs:
    sys.exit(f"list-runs: no runs recorded in {path}")
for i, run in enumerate(runs):
    tag = run.get("tag") or "-"
    sha = run.get("sha", "unknown")
    date = run.get("date") or run.get("context", {}).get("date", "")
    count = len(run.get("benchmarks", []))
    print(f"  {i:3d}  tag={tag:16s} sha={sha:12s} "
          f"{count:3d} benchmarks  {date}")
PY
  exit $?
fi

bin="$build_dir/micro_throughput"
if [ ! -x "$bin" ]; then
  echo "error: $bin not built (configure with -DAXC_BUILD_MICROBENCH=ON," >&2
  echo "       which requires google-benchmark)" >&2
  exit 1
fi

sha=$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)
out=$(mktemp "${TMPDIR:-/tmp}/axc_micro.XXXXXX.json")
trap 'rm -f "$out"' EXIT INT TERM

"$bin" \
  --benchmark_out="$out" \
  --benchmark_out_format=json \
  "$@"

if [ "$check" = 1 ]; then
  python3 - "$repo_root/BENCH_micro.json" "$out" "$against" <<'PY'
import json
import os
import sys

trajectory_path, run_path, against = sys.argv[1:4]

# The perf levers the ROADMAP tracks; >25% slower than the baseline fails.
# Names are compared with any "/manual_time" suffix stripped, so baselines
# recorded before a bench switched to UseManualTime stay comparable.
WATCHED = (
    "bm_wmed_evaluate",
    "bm_evolver_generation",
    "bm_evolver_generation_adder",
    "bm_sweep_session_mt/2",
    "bm_checkpoint_save",
    "bm_checkpoint_resume",
    "bm_store_put",
    "bm_store_get",
    "bm_server_hit",
    "bm_server_hit_mc/2",
)
THRESHOLD = 1.25


def normalize(name):
    suffix = "/manual_time"
    return name[:-len(suffix)] if name.endswith(suffix) else name


with open(run_path) as f:
    fresh = {normalize(b["name"]): b
             for b in json.load(f).get("benchmarks", [])}

# One precise line per failure shape: the gate refusing to run must say
# exactly why, not stack-trace.
if not os.path.exists(trajectory_path):
    sys.exit(f"check: {trajectory_path} not found — record a baseline "
             "first (bench/run_micro.sh --tag <name>)")
if os.path.getsize(trajectory_path) == 0:
    sys.exit(f"check: {trajectory_path} is empty — remove it and "
             "re-record a baseline")
try:
    with open(trajectory_path) as f:
        trajectory = json.load(f)
except json.JSONDecodeError as err:
    sys.exit(f"check: {trajectory_path} is not valid JSON ({err}) — "
             "fix or remove it and re-record a baseline")
if not isinstance(trajectory, dict) or not isinstance(
        trajectory.get("runs", []), list):
    sys.exit(f"check: {trajectory_path} has no 'runs' list — "
             "unrecognized layout")
runs = trajectory.get("runs", [])

baseline = None
for run in runs:
    run_tag = run.get("tag")
    if run_tag and (not against or run_tag == against):
        baseline = run  # keep the most recent match
if baseline is None:
    wanted = f"tag {against!r}" if against else "any tagged run"
    sys.exit(f"check: no baseline ({wanted}) in {trajectory_path}")

base = {normalize(b["name"]): b for b in baseline.get("benchmarks", [])}
print(f"check: baseline tag={baseline.get('tag')} sha={baseline.get('sha')}")

failed = []
compared = 0
for name in WATCHED:
    if name not in fresh:
        continue  # filtered out of this run
    if name not in base:
        print(f"  {name:35s} (not in baseline, skipped)")
        continue
    compared += 1
    new = fresh[name]["real_time"]
    old = base[name]["real_time"]
    ratio = new / old if old > 0 else float("inf")
    verdict = "FAIL" if ratio > THRESHOLD else "ok"
    print(f"  {name:35s} {old:12.1f} -> {new:12.1f} ns   "
          f"x{ratio:.3f}  {verdict}")
    if ratio > THRESHOLD:
        failed.append(name)

if compared == 0:
    sys.exit("check: no watched benchmark present in both runs "
             "(check the --benchmark_filter)")
if failed:
    sys.exit(f"check: regression >25% on: {', '.join(failed)}")
print("check: no watched benchmark regressed >25%")
PY
  exit 0
fi

python3 - "$repo_root/BENCH_micro.json" "$out" "$sha" "$tag" <<'PY'
import json
import os
import sys

trajectory_path, run_path, sha, tag = sys.argv[1:5]

with open(run_path) as f:
    run = json.load(f)

# A missing trajectory starts one; a *corrupt* trajectory is an error —
# silently resetting it would throw away the recorded perf history.
if os.path.exists(trajectory_path) and os.path.getsize(trajectory_path) > 0:
    try:
        with open(trajectory_path) as f:
            trajectory = json.load(f)
    except json.JSONDecodeError as err:
        sys.exit(f"append: {trajectory_path} is not valid JSON ({err}) — "
                 "refusing to overwrite the perf trajectory; fix or move "
                 "it aside first")
    if not isinstance(trajectory, dict):
        sys.exit(f"append: {trajectory_path} is not a JSON object — "
                 "refusing to overwrite the perf trajectory")
else:
    trajectory = {"runs": []}
# Legacy layout (a single google-benchmark report at top level): keep it as
# the first run of the trajectory.
if "runs" not in trajectory:
    trajectory = {"runs": [trajectory]}


def box_fingerprint():
    """CPU model, logical CPUs and the SIMD levels the kernels dispatch on."""
    box = {"nproc": os.cpu_count()}
    try:
        with open("/proc/cpuinfo") as f:
            info = f.read()
    except OSError:
        return box
    for line in info.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            box["cpu"] = value.strip()
        elif key.strip() == "flags":
            flags = set(value.split())
            box["simd"] = [f for f in ("avx2", "avx512f", "avx512_vpopcntdq")
                           if f in flags]
            break
    return box


entry = {
    "sha": sha,
    "date": run.get("context", {}).get("date", ""),
    "box": box_fingerprint(),
    "context": run.get("context", {}),
    "benchmarks": run.get("benchmarks", []),
}
if tag:
    entry["tag"] = tag
trajectory["runs"].append(entry)

with open(trajectory_path, "w") as f:
    json.dump(trajectory, f, indent=2)
    f.write("\n")

print(f"appended run sha={sha} tag={tag or '-'} "
      f"({len(entry['benchmarks'])} benchmarks, "
      f"{len(trajectory['runs'])} runs total) to {trajectory_path}")
PY
