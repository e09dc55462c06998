#!/bin/sh
# Regenerate BENCH_warmup.json, the checked-in functional-warmup
# throughput record: Time-Keeping warmup kinst/s (median of --repeat)
# and a digest of the post-warmup snapshot for mcf, ammp, art, swim
# and applu.
#
#   scripts/bench_warmup.sh [REV] [perf_warmup flags...]
#
# Other arguments are passed through to bench/perf_warmup, e.g.
# --repeat=N or --benchmarks=a,b,c.
#
# With a git revision REV as the first argument, the same bench is
# also built from REV in a temporary checkout (mktemp -d; honours
# TMPDIR). The two builds then run --repeat rounds (default 3) of one
# timed warmup per profile each, interleaved round by round, each
# build going first in every other round, so that host drift and run
# order hit both alike. Each profile records the median over rounds
# for both builds, the baseline's kinst/s, the speedup and whether
# every round of both builds left byte-identical snapshots. This
# script owns that comparison; perf_warmup only times one build.
#
# Exit status: 0 when every snapshot matched, 2 when some differ
# (BENCH_warmup.json is still rewritten and says which), anything
# else when a build, a run or the comparison failed (the checked-in
# BENCH_warmup.json is left as it was).
set -e

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build="$repo/build"

baseline=
case ${1:-} in
  ''|-*) ;;
  *) baseline=$1; shift ;;
esac

cmake -S "$repo" -B "$build" >/dev/null
cmake --build "$build" --target perf_warmup -j 4 >/dev/null
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "$build/CMakeCache.txt")

if [ -z "$baseline" ]; then
    exec "$build/bench/perf_warmup" --out="$repo/BENCH_warmup.json" "$@"
fi

# --repeat counts interleaved rounds here; every perf_warmup call
# times one warmup per profile.
rounds=3
for arg do
    shift
    case $arg in
      --repeat=*) rounds=${arg#--repeat=} ;;
      *) set -- "$@" "$arg" ;;
    esac
done

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git -C "$repo" archive "$baseline" | tar -x -C "$work/src"
# Older revisions predate the bench: build this one against them.
cp "$repo/bench/perf_warmup.cc" "$work/src/bench/"
grep -q 'vsv_add_bench(perf_warmup)' "$work/src/bench/CMakeLists.txt" ||
    echo 'vsv_add_bench(perf_warmup)' >>"$work/src/bench/CMakeLists.txt"
cmake -S "$work/src" -B "$work/build" -DBUILD_TESTING=OFF \
    -DCMAKE_BUILD_TYPE="$build_type" >/dev/null
cmake --build "$work/build" --target perf_warmup -j 4 >/dev/null

round=0
while [ "$round" -lt "$rounds" ]; do
    order="base head"
    [ $((round % 2)) -eq 1 ] && order="head base"
    for side in $order; do
        bin="$build/bench/perf_warmup"
        [ "$side" = base ] && bin="$work/build/bench/perf_warmup"
        "$bin" --repeat=1 --out="$work/$side.$round.json" "$@" >/dev/null
    done
    round=$((round + 1))
done

status=0
python3 - "$work" "$rounds" >"$work/BENCH_warmup.json" <<'EOF' || status=$?
import json
import statistics
import sys

work, rounds = sys.argv[1], int(sys.argv[2])


def load(side):
    """The seed, and per round the perf_warmup runs by profile id."""
    out = []
    for r in range(rounds):
        with open(f"{work}/{side}.{r}.json") as f:
            doc = json.load(f)
        out.append({run["id"]: run for run in doc["runs"]})
    return doc["seed"], out


def g(x):
    """perf_warmup's number format (6 significant digits)."""
    return float(f"{x:.6g}")


seed, head = load("head")
_, base = load("base")
lines = []
total_insts = total_head = total_base = 0.0
all_identical = True
for pid, first in head[0].items():
    insts = first["warmupInstructions"]
    head_s = statistics.median(h[pid]["medianSeconds"] for h in head)
    base_s = statistics.median(b[pid]["medianSeconds"] for b in base)
    digests = {h[pid]["snapshotDigest"] for h in head}
    digests |= {b[pid]["snapshotDigest"] for b in base}
    identical = len(digests) == 1
    all_identical = all_identical and identical
    kips = insts / head_s / 1e3
    base_kips = insts / base_s / 1e3
    total_insts += insts
    total_head += head_s
    total_base += base_s
    lines.append(
        f'    {{"id": "{pid}", "warmupInstructions": {insts}, '
        f'"medianSeconds": {g(head_s)}, "kinstPerSec": {g(kips)}, '
        f'"snapshotBytes": {first["snapshotBytes"]}, '
        f'"snapshotDigest": "{first["snapshotDigest"]}", '
        f'"baseline": {{"kinstPerSec": {g(base_kips)}, '
        f'"snapshotDigest": "{base[0][pid]["snapshotDigest"]}"}}, '
        f'"speedup": {g(kips / base_kips)}, '
        f'"identical": {"true" if identical else "false"}}}')
    if not identical:
        print(f"bench_warmup: {pid}: post-warmup snapshots differ",
              file=sys.stderr)

overall = total_insts / total_head / 1e3
base_overall = total_insts / total_base / 1e3
print("{")
print('  "tool": "perf_warmup",')
print(f'  "seed": {seed},')
print(f'  "repeat": {rounds},')
print('  "runs": [')
print(",\n".join(lines))
print("  ],")
print(f'  "overall": {{"kinstPerSec": {g(overall)}, '
      f'"baselineKinstPerSec": {g(base_overall)}, '
      f'"speedup": {g(overall / base_overall)}, '
      f'"allIdentical": {"true" if all_identical else "false"}}}')
print("}")
sys.exit(0 if all_identical else 2)
EOF
case $status in
  0|2) mv "$work/BENCH_warmup.json" "$repo/BENCH_warmup.json" ;;
  *) echo "bench_warmup: comparison failed (exit $status);" \
         "BENCH_warmup.json left unchanged" >&2 ;;
esac
exit $status
