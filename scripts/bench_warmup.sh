#!/bin/sh
# Regenerate BENCH_warmup.json, the checked-in functional-warmup
# throughput record: Time-Keeping warmup kinst/s (median of --repeat)
# and a digest of the post-warmup snapshot for mcf, ammp, art, swim
# and applu.
#
#   scripts/bench_warmup.sh [REV] [perf_warmup flags...]
#
# With a git revision REV as the first argument, the same bench is
# first built from REV in a temporary checkout (mktemp -d; honours
# TMPDIR), run there, and its JSON passed as --compare, so each
# profile records the baseline's kinst/s, the speedup and whether the
# snapshots are byte-identical. Other arguments are passed through to
# bench/perf_warmup, e.g. --repeat=N or --benchmarks=a,b,c.
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

if [ -n "$baseline" ]; then
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
    "$work/build/bench/perf_warmup" --out="$work/baseline.json" "$@"
    set -- --compare="$work/baseline.json" "$@"
fi

"$build/bench/perf_warmup" --out="$repo/BENCH_warmup.json" "$@"
