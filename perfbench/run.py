#!/usr/bin/env python3
"""Builds the NomLoc benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_replay --seed 1 --seconds 10 --trace 0

The first call configures and builds into the directory named by
CARGO_TARGET_DIR (default .bench_build); later calls only re-check the build.
Build output goes to stderr, so the last line of stdout is the result JSON
the benchmark binary prints. Every argument is passed through to the binary
(see src/main.cc for the flags).
"""
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "nomloc_perfbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        ok = build(build_dir)
    except OSError as error:  # cmake missing
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        ok = False
    if not ok:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "nomloc_perfbench")
    out_dir = os.path.join(ROOT, ".bench_out")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--out-dir", out_dir])


if __name__ == "__main__":
    sys.exit(main())
