#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <epidemic|build|nightly|scenarios> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the root of a checkout. The build (CMake, the repository's
src/ libraries plus perfbench/cpp) lands in .bench_build/perfbench; build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. The process is then replaced by the benchmark
binary, so no child outlives this script.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_DIR = os.path.join(OUT_DIR, "build")


def build() -> str:
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no EpiScale sources (src/) next to perfbench/")
    commands = [["cmake", "--build", BUILD_DIR, "-j", "4",
                 "--target", "perfbench"]]
    # Configure once; later builds re-run CMake themselves when a
    # CMakeLists.txt changes.
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        commands.insert(0, configure)
    for command in commands:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(command)}")
    return os.path.join(BUILD_DIR, "perfbench")


def main() -> None:
    binary = build()
    sys.stdout.flush()
    os.execv(binary, [binary, *sys.argv[1:], "--out-dir", OUT_DIR])


if __name__ == "__main__":
    main()
