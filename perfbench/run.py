#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The OCaml benchmark (perfbench/e2e.ml) is
built with dune into perfbench/_build, separate from the tree's own
_build, and writes its scratch state (WAL directories, checkpoints) under
perfbench/_work.  The last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}.  The exit status is 0 only
when the build succeeded, every correctness gate passed and the result
line is well formed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve-fleet", "paper-durable", "skew-partition")
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join("perfbench", "_build")
WORK_DIR = os.path.join("perfbench", "_work")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "e2e.exe")
RUN_TIMEOUT_S = 170


def build():
    """Compile the benchmark (and the libraries it links) in release mode."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", os.path.abspath(BUILD_DIR),
           "--profile", "release", "-j", "2", "./perfbench/e2e.exe"]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return done.returncode == 0


def check_result(line, trace):
    """The result line must carry exactly the contract's keys."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a positive integer")
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise ValueError("metric %s missing or with the wrong unit" % m["name"])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", WORK_DIR]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        check_result(lines[-1], args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        sys.stdout.write(done.stdout)
        print("perfbench: malformed result line: %s" % e, file=sys.stderr)
        return 4
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
