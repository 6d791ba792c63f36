#!/usr/bin/env python3
"""Build picobench from this checkout, then run one of its workloads.

Usage, from the repository root:

    python3 picobench/run.py --workload hyper-real --seed 1 --trace 1

The first call configures and builds src/ and picobench into
.bench_build/picobench (one to two minutes on 4 cores); later calls only
re-check that build. Build output goes to stderr. picobench itself prints a
report and, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "picobench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("picobench: no src/ next to picobench/; run it from a full "
                 "checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "picobench"), "-B",
                      BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "picobench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("picobench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "picobench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cmd = [build(), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd.append("--traced")
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
