#!/usr/bin/env python3
"""Build and run the MikPoly host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload compile-cold|serve-nominal|serve-overload \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first build compiles the whole
library stack), then runs it with the same arguments. The benchmark's
standard output is passed through; its last line is the JSON result.
The exit code is the benchmark's, 2 when the build fails, or 3 when
the run outlives its time limit (set-up and checks plus twice the
measured seconds).
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 870
RUN_MARGIN_S = 120


def run_timeout(argv):
    """Time limit of a run, or None when --seconds is missing or bad
    (the benchmark then exits with its usage message)."""
    try:
        seconds = float(argv[argv.index("--seconds") + 1])
    except (ValueError, IndexError):
        return None
    return RUN_MARGIN_S + 2 * max(seconds, 0)


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    limit = run_timeout(sys.argv)
    try:
        return subprocess.run([exe] + sys.argv[1:], timeout=limit).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {limit:.0f} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
