#!/usr/bin/env python3
"""Build and run the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload fig4 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (and the simulator libraries it links)
into .bench_build/perfbench, or $CARGO_TARGET_DIR/perfbench when that is
set, runs one workload and forwards the driver's exit code; the last
line of standard output is the result JSON. --smoke runs every workload
on a tiny window with and without tracing, checks that each metric
BENCHMARK.json names is printed with its unit, and checks that a
deliberately corrupted digest is counted as a failure.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig4", "table2", "fig56-store")
DIGESTS = os.path.join(HERE, "digests_seed0.json")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then let cmake rebuild whatever changed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found next to "
                 + HERE)
    out = build_dir()
    # Keeps the harness's build-time `git describe` inside perfbench/,
    # so the exported manifests do not depend on where the tree sits.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=ROOT)
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, extra=()):
    """Run the driver once; returns (exit code, its stdout)."""
    workdir = os.path.join(build_dir(), "work",
                           "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--trace=%d" % trace,
           "--workdir=" + workdir, "--digests=" + DIGESTS,
           "--trace-out=" + os.path.join(build_dir(),
                                         "spans-%s.json" % workload)]
    proc = subprocess.Popen(cmd + list(extra), stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, out


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(binary, workload, 0, 0, trace, ["--smoke"])
            result = json.loads(out.strip().splitlines()[-1])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if code or not result["correct"] or result["failed"]:
                problems.append("%s trace=%d failed" % (workload, trace))
            if printed != expected[trace]:
                problems.append("%s trace=%d metrics differ: %s" % (
                    workload, trace,
                    set(printed.items()) ^ set(expected[trace].items())))
        code, out = run(binary, workload, 0, 0, 0,
                        ["--smoke", "--corrupt-digest"])
        result = json.loads(out.strip().splitlines()[-1])
        if code == 0 or result["correct"] or result["failed"] < 1:
            problems.append(workload + ": corrupted digest not counted")
    for p in problems:
        print("smoke: " + p, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    # A SIGTERM unwinds like an exception, so run() stops the driver
    # and removes its work directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite this workload's seed-0 digests")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.smoke:
        return smoke(binary)
    extra = ["--record-digests"] if args.record_digests else []
    code, out = run(binary, args.workload, args.seed, args.seconds,
                    args.trace, extra)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
