#!/usr/bin/env python3
"""Build the dfsim benchmark binary and run one workload.

Run from the repository root:

    python3 benchmark/run.py --workload medium_un_t1 --seed 1 --seconds 20 --trace 0

The first call configures and builds benchmark/ (Release, with the dfsim
library from the repository root) into .bench_build/; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
standard output is the JSON result of dfsim_bench. Every argument is
passed to dfsim_bench (see bench_main.cpp). The exit code is non-zero, with
no result printed, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "dfsim_bench")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "dfsim_bench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 2
    # The fingerprint's git rev must come from this checkout or nowhere:
    # git may not search the directories above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
