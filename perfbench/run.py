#!/usr/bin/env python3
"""Benchmark entry point for the lazy XML server.

Builds the benchmark driver and the repository's `lazyxml_server` from
this checkout's sources (once; later runs reuse the build), then runs one
workload and relays its report. The last line of standard output is one
JSON object with the run's metrics.

    python3 perfbench/run.py --workload xmark-read --seed 1 --seconds 10 --trace 0

Workloads: xmark-read, feed-durable, bulk-ingest (see perfbench/README.md).
Everything the run writes goes under .bench_build/ in the checkout root.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the driver and server; returns True on success."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "..", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                return False
        jobs = str(os.cpu_count() or 1)
        cmd = ["cmake", "--build", BUILD, "--target", "perfbench_driver",
               "-j", jobs]
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 2
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
