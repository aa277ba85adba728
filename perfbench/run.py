#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench/main.cpp).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <client_paper|serve_warm|serve_regen> \\
        --seed <n> --seconds <s> --trace <0|1>

The first call configures a Release build of the library and the benchmark
under $CARGO_TARGET_DIR (default .bench_build) in the checkout; later calls
rebuild incrementally. The benchmark's self-test runs before every
measurement. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. A traced run also writes its spans as Chrome
trace-event JSON next to the build.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("client_paper", "serve_warm", "serve_regen")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(f"perfbench: {' '.join(map(str, cmd))} failed "
                 f"({result.returncode})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build = build_root / "perfbench"
    if not (build / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", HERE, "-B", build,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build, "-j", jobs, "--target",
               "abc_perfbench", "perfbench_selftest"])
    run_quiet([build / "perfbench_selftest"])

    cmd = [build / "abc_perfbench", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--trace-out",
                build / f"trace-{args.workload}-{args.seed}.json"]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
