#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 40 --trace 0

Run from the repository root. The first call configures and builds the
sparsetrain library, its daemons and the perfbench program into
.bench_build/perfbench (Release); later calls only bring that build up
to date. Build output goes to stderr, so the result line stays the
last line of stdout. The exit code is perfbench's (non-zero on a
failed build, a failed run, or any wrong answer).
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if cfg.returncode != 0:
            return cfg.returncode
    built = subprocess.run(
        ["cmake", "--build", build, "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode
    program = os.path.join(build, "perfbench")
    sys.stdout.flush()
    os.execv(program, [program, "--root", root] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
