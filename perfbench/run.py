#!/usr/bin/env python3
"""Build and run the TraceLens end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
tracelens library, the tracelens CLI and the perfbench driver from this
checkout's sources (Release) under $CARGO_TARGET_DIR, or .bench_build when
that is unset; later calls rebuild only what changed. Build output goes to
stderr, so the driver's result is the last line of stdout. See
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench"
    )
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                      build, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return 2

    commit = subprocess.run(
        ["git", "-C", root, "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    driver = [os.path.join(build, "perfbench"), "--root", root]
    if commit.returncode == 0:
        driver += ["--commit", commit.stdout.strip()]
    return subprocess.run(driver + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
