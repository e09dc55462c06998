#!/bin/sh
# Regenerate BENCH_sched.json, the checked-in record of sweep-planned
# warmup sharing: Figure 7 and Table 2 at --jobs=4, each timed cold at
# a base revision and at this tree.
#
#   scripts/bench_sched.sh REV [REPEATS]
#
# Both trees are built Release in a temporary directory (mktemp -d;
# honours TMPDIR): REV from `git archive`, this tree as it stands on
# disk. Every bench then runs REPEATS times (default 3) per side,
# base and head interleaved, each side going first in every other
# repeat, so that host drift and run order hit both alike.
# Recorded per bench and side: each wall-clock time and its median,
# and the bench's peak RSS and its median. `identical` is true when every
# run's result without its host-dependent throughput block, its stats
# and the manifest's snapshotCache counters match across all runs of
# both sides.
set -e

if [ $# -lt 1 ]; then
    echo "usage: $0 REV [REPEATS]" >&2
    exit 2
fi
repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
base=$1
repeats=${2:-3}

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base-src"
git -C "$repo" archive "$base" | tar -x -C "$work/base-src"
for side in base head; do
    src="$work/base-src"
    [ "$side" = head ] && src="$repo"
    if ! { cmake -S "$src" -B "$work/$side" -DBUILD_TESTING=OFF \
               -DCMAKE_BUILD_TYPE=Release &&
           cmake --build "$work/$side" --target fig7_timekeeping \
               table2_baseline -j 4; } >"$work/build.log" 2>&1; then
        cat "$work/build.log" >&2
        exit 1
    fi
done

python3 - "$work" "$repeats" "$(git -C "$repo" rev-parse --short "$base")" \
    "$(git -C "$repo" describe --always --dirty)" \
    >"$work/BENCH_sched.json" <<'EOF'
import json
import os
import statistics
import subprocess
import sys
import time

work, repeats, base_rev, head_rev = sys.argv[1:5]
repeats = int(repeats)
benches = [
    ("fig7_timekeeping --jobs=4", "fig7_timekeeping", ["--jobs=4"]),
    ("table2_baseline --jobs=4", "table2_baseline", ["--jobs=4"]),
]


def run(side, tool, flags, out):
    """Wall seconds and peak RSS (MiB) of one cold bench process."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [f"{work}/{side}/bench/{tool}", *flags, f"--json={out}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{side} {tool} {' '.join(flags)} exited "
                 f"{proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0


def outputs(path):
    """What must not change: results minus throughput, stats and the
    snapshot cache counters. Run fingerprints are left out: against a
    revision that computes them differently they would differ although
    every result matches."""
    with open(path) as f:
        doc = json.load(f)
    runs = []
    for r in doc["runs"]:
        result = dict(r["result"] or {})
        result.pop("throughput", None)
        runs.append([r["id"], r["status"], r["attempts"], result,
                     r["stats"]])
    return {"snapshotCache": doc["manifest"]["snapshotCache"],
            "runs": runs}


def side_summary(walls, rss):
    return {"wallSeconds": [round(w, 3) for w in walls],
            "medianWallSeconds": round(statistics.median(walls), 3),
            "peakRssMiB": [round(m, 1) for m in rss],
            "medianPeakRssMiB": round(statistics.median(rss), 1)}


rows = []
for name, tool, flags in benches:
    walls = {"base": [], "head": []}
    rss = {"base": [], "head": []}
    reference = None
    identical = True
    for r in range(repeats):
        for side in ("base", "head")[::1 if r % 2 == 0 else -1]:
            out = f"{work}/out.json"
            wall, peak = run(side, tool, flags, out)
            walls[side].append(wall)
            rss[side].append(peak)
            got = outputs(out)
            if reference is None:
                reference = got
            identical = identical and got == reference
    base, head = (side_summary(walls[s], rss[s]) for s in ("base", "head"))
    rows.append({
        "name": name,
        "base": base,
        "head": head,
        "wallChange": round(head["medianWallSeconds"] /
                            base["medianWallSeconds"] - 1, 3),
        "peakRssChange": round(head["medianPeakRssMiB"] /
                               base["medianPeakRssMiB"] - 1, 3),
        "runs": len(reference["runs"]),
        "snapshotCache": reference["snapshotCache"],
        "identical": identical,
    })
    print(f"{name}: wall {base['medianWallSeconds']} -> "
          f"{head['medianWallSeconds']} s, peak RSS "
          f"{base['medianPeakRssMiB']} -> {head['medianPeakRssMiB']} MiB, "
          f"identical={identical}", file=sys.stderr)

model = "unknown"
with open("/proc/cpuinfo") as f:
    for line in f:
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
json.dump({
    "tool": "scripts/bench_sched.sh",
    "host": {"cpus": os.cpu_count(), "model": model,
             "buildType": "Release"},
    "base": base_rev,
    "head": head_rev,
    "repeats": repeats,
    "benches": rows,
    "identical": all(r["identical"] for r in rows),
}, sys.stdout, indent=2)
print()
EOF
mv "$work/BENCH_sched.json" "$repo/BENCH_sched.json"
