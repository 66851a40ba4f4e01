#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 ifpbench/run.py --workload pointer-chase --seed 1 \
        --seconds 30 --trace 0

Configures and builds ifpbench/ (a CMake package that compiles the
simulator from ../src) into .bench_build/ifpbench on first use, then
runs the benchmark binary. Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "ifpbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if _have("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "ifpbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "ifpbench")


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"ifpbench: build failed: {err}", file=sys.stderr)
        return 2
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
