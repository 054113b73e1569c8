#!/usr/bin/env python3
"""Builds and runs the spb repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and compiles the
spb libraries and the benchmark program (perfbench/CMakeLists.txt, Release)
into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later calls rebuild only what changed.  Build output goes
to stderr.  The program then replaces this process: its stderr carries the
checks and a readable report, and the last line of its stdout is the JSON
result.  --self-test builds and runs the benchmark's own unit tests.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_sweep", "sim_large", "serve_plan", "check_sweep")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    out = build_dir()
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        # A cache configured from another checkout cannot be reused.
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(out)
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", target]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_test")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("spb_perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        argv += ["--spans-out", os.path.join(
            build_dir(), f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, argv)
    return 1  # not reached


if __name__ == "__main__":
    sys.exit(main())
