#!/usr/bin/env python3
"""The benchmark's own test: a corrupted recorded digest must fail
every op.

    python3 perfbench/selftest.py

Runs the hits workload for one second twice from the repository root:
once against perfbench/expected.json (every op must pass) and once
against a copy whose digest for that seed has one digit changed (every
op must fail, so fail_rate is 1 and correct is false). Exits 0 when
both hold.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 3
POOL = 8  # engine_ops.cc kSeedPool


def run(expected):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "hits",
         "--seed", str(SEED), "--seconds", "1", "--trace", "0",
         "--expected", expected],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    good = run(os.path.join(HERE, "expected.json"))
    assert good["correct"] and good["failed"] == 0, good

    with open(os.path.join(HERE, "expected.json")) as f:
        digests = json.load(f)
    d = digests["hits"][str(SEED % POOL)]
    digests["hits"][str(SEED % POOL)] = ("0" if d[0] != "0" else "1") + d[1:]
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build_dir, exist_ok=True)
    corrupted = os.path.join(build_dir, "expected.corrupted.json")
    with open(corrupted, "w") as f:
        json.dump(digests, f)
    try:
        bad = run(corrupted)
    finally:
        os.remove(corrupted)
    assert not bad["correct"], bad
    assert bad["attempted"] >= 1 and bad["failed"] == bad["attempted"], bad
    print(f"selftest ok: {good['attempted']} ops passed on the recorded "
          f"digest, {bad['failed']}/{bad['attempted']} failed on a "
          f"corrupted one (fail_rate 1)")


if __name__ == "__main__":
    main()
