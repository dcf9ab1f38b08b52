#!/usr/bin/env python3
"""Builds perfbench from the checkout it sits in, then runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload ldbc10-static --seed 1 --seconds 15 --trace 0

Every argument is handed to the perfbench binary (see README.md). The build
goes to .bench_build/ at the repository root; its log is
.bench_build/build.log. Build output never reaches standard output, so the
binary's result line stays the last line there.
"""

import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "cmake")
BUILD_LOG = os.path.join(BUILD_ROOT, "build.log")
BINARY = os.path.join(BUILD_DIR, "perfbench")
TOOLS_DIR = os.path.join(BUILD_DIR, "pghive", "tools")
# The binary stops itself at 170 s; this is the backstop for a wedged child.
RUN_TIMEOUT_S = 178


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode


def build():
    for needed in ("CMakeLists.txt", "src", "tools"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no pghive sources here ({needed} missing under {ROOT})")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_LOG, "a") as log:
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            if run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], log) != 0:
                return False
        return run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs,
                           "--target", "perfbench"], log) == 0


def main():
    if not build():
        try:
            with open(BUILD_LOG) as log:
                sys.stderr.write("".join(log.readlines()[-30:]))
        except OSError:
            pass
        fail(f"build failed (log: {BUILD_LOG})")
    cmd = [BINARY, "--tools-dir", TOOLS_DIR,
           "--work-dir", os.path.join(BUILD_ROOT, "work")] + sys.argv[1:]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was killed")


if __name__ == "__main__":
    main()
