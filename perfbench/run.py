#!/usr/bin/env python3
"""Builds and runs the browsing-session benchmark.

    python3 perfbench/run.py --workload browse|write|mixed --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds an
optimized (Release) engine plus the benchmark program from the
repository's own sources into .bench_build/; later runs only rebuild
what changed. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero, printing
no result, when the engine sources are missing or the build fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
BINARY = os.path.join(BUILD_DIR, "lsd_perfbench")
# A single run must end well inside three minutes.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    engine = os.path.join(HERE, "..", "src", "core", "loose_db.h")
    if not os.path.isfile(engine):
        fail("engine sources not found next to the benchmark (src/ missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["browse", "write", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", RUN_DIR]
    try:
        result = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
