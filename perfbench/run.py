#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload book --seed 1 --seconds 30 --trace 0

Run from the root of the repository. The first call configures and builds
`perfbench` (the library from src/ plus the driver in perfbench/src/) in
.bench_build/ with the Release settings; later calls only rebuild what
changed. Build output goes to stderr. The last line of stdout is the
result: {"correct", "attempted", "failed", "metrics"}; the line before it
holds the build facts. With --trace 1 the spans are written as Chrome
trace-event JSON to .bench_out/trace-<workload>-<seed>.json.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("book", "protein", "auction")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds perfbench; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no src/ next to perfbench/; run from a checkout "
              "of the repository", file=sys.stderr)
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 2)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # child before re-raising.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: exited with {run.returncode}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
