#!/usr/bin/env python3
"""perfbench: the provabs benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a provabs source tree. Builds provabs_server and the
load driver from that tree into .bench_build/ (Release), runs the
benchmark's self-test, then one run of the workload. The driver's last
stdout line is the JSON result; everything the build prints goes to stderr.
Exit codes: 0 ok, 1 oracle mismatch or failed self-test, 2 usage or
missing sources, 3 build or run failure.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("whatif-serve", "tradeoff-explore", "append-stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_checked(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; True on exit code 0."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        log("timed out: " + " ".join(cmd))
        return False


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_checked(cmd, BUILD_TIMEOUT_S):
            return False
    return run_checked(
        ["cmake", "--build", BUILD, "--target", "perfbench_driver",
         "perfbench_selftest", "provabs_server", "-j",
         str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)


def run_driver(args):
    """Runs the driver in its own process group and kills the whole group
    (the driver and any server it spawned) on timeout or signal."""
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--server", os.path.join(BUILD, "provabs", "tools",
                                    "provabs_server"),
           "--out-dir", OUT]
    proc = subprocess.Popen(cmd, start_new_session=True)

    def kill_group(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()

    def on_signal(signum, frame):
        kill_group()
        sys.exit(3)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s; killed" % RUN_TIMEOUT_S)
        kill_group()
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        log("--seed must be >= 0 and --seconds >= 1")
        return 2
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        log("provabs sources not found in " + ROOT)
        return 2

    started = time.monotonic()
    if not build():
        log("build failed")
        return 3
    log("build ready in %.1f s" % (time.monotonic() - started))
    os.makedirs(OUT, exist_ok=True)
    if not run_checked([os.path.join(BUILD, "perfbench_selftest")], 120):
        log("self-test failed")
        return 1
    return run_driver(args)


if __name__ == "__main__":
    sys.exit(main())
