#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see RECORD.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
benchmark with the repository's src/ libraries into .bench_build/ (Release,
4 jobs); later runs reuse the build. The benchmark's output, whose last line
is the JSON result, passes through unchanged, and so does its exit code.
"""

import fcntl
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "e2e_bench")


def build():
    """Configures and builds once per checkout; a lock serializes racing runs."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release", *generator],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", "e2e_bench",
                        "-j", "4"], check=True, stdout=sys.stderr)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no COBRA sources under ./src; run from the repository "
              "root", file=sys.stderr)
        return 2
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
