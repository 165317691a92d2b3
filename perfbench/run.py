#!/usr/bin/env python3
"""Builds the temos benchmark from this checkout and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (which compiles the
checkout's src/) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only re-check the build. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result. The traced
run (--trace 1) also writes its spans as Chrome trace-event JSON into the
build directory. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    bench_dir = os.path.join(build_dir, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(bench_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bench_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bench_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return os.path.join(bench_dir, "perfbench")


def option(args, flag, default=None):
    return args[args.index(flag) + 1] if flag in args[:-1] else default


def main(args):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary] + args + ["--golden-dir", os.path.join(ROOT, "tests", "golden")]
    if option(args, "--trace", "0") != "0":
        trace = "trace-%s-%s.json" % (option(args, "--workload", "none"),
                                      option(args, "--seed", "1"))
        command += ["--trace-file", os.path.join(build_dir, "perfbench", trace)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
