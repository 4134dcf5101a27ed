#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hits --seed 1 --seconds 30 --trace 0

Run it from the repository root. It configures perfbench/CMakeLists.txt
(which compiles ../src) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, builds the twbench program, and runs it. The program's
last stdout line is the result; build output goes to stderr. Exits
non-zero without a result when the simulator sources are missing or
the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("hits", "misses", "served_cached")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, *gen],
        ["cmake", "--build", build_dir, "--target", "twbench", "-j",
         str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "twbench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--expected",
                    default=os.path.join(HERE, "expected.json"),
                    help="recorded outcome digests (the self-test "
                         "passes a corrupted copy)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(build_dir)
    # Sockets and trace files live here; a relative path keeps unix
    # socket names under their 108-byte limit.
    workdir = os.path.relpath(os.path.join(build_dir, "run"))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", args.expected, "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"twbench exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
