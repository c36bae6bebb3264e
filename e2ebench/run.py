#!/usr/bin/env python3
"""Builds and runs the GroupSA end-to-end benchmark (see README.md).

Usage, from the root of a source tree:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds the library and the benchmark driver
(Release) into .bench_build/e2ebench; later calls rebuild incrementally.
Build output goes to standard error, so the driver's report is the whole of
standard output and its last line is the JSON result. Exits non-zero,
without a result, when the library sources are missing or the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/CMakeLists.txt) not found under " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=False)
    done = subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                           "e2ebench", "-j", jobs],
                          stdout=sys.stderr, check=False)
    binary = os.path.join(BUILD_DIR, "e2ebench")
    if done.returncode != 0 or not os.path.isfile(binary):
        fail("build failed")
    return binary


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    binary = build()
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    work = os.path.join(ROOT, ".bench_build", "runs", "%s-%d" % (tag, os.getpid()))
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", work, "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--spans", os.path.join(traces, tag + ".jsonl")]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False).returncode
    except subprocess.TimeoutExpired:
        code = 124
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
