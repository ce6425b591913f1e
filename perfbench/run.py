#!/usr/bin/env python3
"""Builds the crew benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run it from the root of a checkout. The first call configures and builds
the benchmark (and the crew libraries it links) in .bench_build/; later
calls rebuild only what changed. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result.
--self-test builds and runs the tests of the benchmark's output checks.
"""

import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170
BUILD_JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("crew sources (src/) not found next to perfbench/")
    os.makedirs(BUILD_DIR, exist_ok=True)
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        command = ["cmake", "--build", BUILD_DIR, "--target", target,
                   "-j", BUILD_JOBS]
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(BUILD_DIR, target)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    if argv == ["--self-test"]:
        binary = build("perfbench_checks_test")
        sys.exit(subprocess.run([binary], cwd=ROOT).returncode)
    flags = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            fail(f"unknown argument {flag!r}")
        value = next(it, None)
        if value is None:
            fail(f"missing value for {flag}")
        flags[flag] = value
    if len(flags) != 4:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> "
             "--trace <0|1>")
    binary = build("crew_perfbench")
    print(f"# git_sha={git_sha()}", flush=True)
    args = [binary]
    for flag, value in flags.items():
        args += [flag, value]
    try:
        result = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main(sys.argv[1:])
