#!/usr/bin/env python3
"""Steadiness and repeatability checks for the end-to-end benchmark.

    python3 perfbench/steady.py [--workloads W,W] [--seeds N] [--sets K]
                                [--first-seed S] [--out FILE]
    python3 perfbench/steady.py --repeatability [--workloads W,W]

Steadiness: runs every workload once per seed through perfbench/run.py,
alternating the workload order from one seed to the next, and repeats the
whole sweep --sets times (default 2) on the same seeds.  For each set it
prints each end-to-end metric's median, quartiles and spread (interquartile
range over the median, quartiles as statistics.quantiles(n=4) gives them).
It fails when a spread exceeds the metric's bound in BENCHMARK.json, or
when a later set's median differs from the first set's, either way, by
more than the bound.  Spreads above a third of the bound are flagged.

Repeatability: at one seed every exact metric must repeat bit for bit
across two runs; at another seed the metered cost must differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ("cost_units_per_mod", "charged_units_per_mod", "slo_met_rate")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


WALL = {}  # workload -> wall seconds of each run


def run(spec, workload, seed, trace=0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    WALL.setdefault(workload, []).append(time.time() - t0)
    result = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit("run failed: %s seed %d (exit %d)" % (workload, seed, done.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def moved(new, old):
    """How far [new] is from [old], either way, as a share of [old]."""
    return abs((new - old) / old) if old else 0.0


def steadiness(spec, workloads, seeds, sets, out):
    metrics = spec["end_to_end"]
    runs = {}  # (set, workload) -> list of metric dicts
    for k in range(sets):
        for i, seed in enumerate(seeds):
            order = workloads if i % 2 == 0 else list(reversed(workloads))
            for w in order:
                runs.setdefault((k, w), []).append(run(spec, w, seed))
                print("set %d seed %d %s done" % (k + 1, seed, w), file=sys.stderr, flush=True)
    if out:
        with open(out, "w") as f:
            json.dump({"%d/%s" % key: v for key, v in runs.items()}, f, indent=1)
    ok = True
    for w in workloads:
        print("\n== %s (%d seeds x %d sets)" % (w, len(seeds), sets))
        print("%-22s %-4s %14s %14s %14s %8s %6s" % ("metric", "set", "median", "q1", "q3", "spread", "bound"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for k in range(sets):
                med, q1, q3, spread = summary([r[name] for r in runs[(k, w)]])
                flag = ""
                if spread > bound:
                    flag, ok = "FAIL spread", False
                elif spread > bound / 3:
                    flag = "wide"
                if first is None:
                    first = med
                elif moved(med, first) > bound:
                    flag, ok = flag + " FAIL median", False
                print("%-22s %-4d %14.6g %14.6g %14.6g %8.4f %6.3f %s"
                      % (name, k + 1, med, q1, q3, spread, bound, flag))
    return ok


def repeatability(spec, workloads):
    ok = True
    for w in workloads:
        a, b, c = run(spec, w, 11), run(spec, w, 11), run(spec, w, 12)
        same = all(a[n] == b[n] for n in EXACT)
        differs = a["cost_units_per_mod"] != c["cost_units_per_mod"]
        print("%-16s seed 11 twice: %s; seed 12: %s" % (
            w, "bit-identical" if same else "DIFFER",
            "differs" if differs else "SAME (seed not reaching the generators)"))
        for n in EXACT:
            print("    %-22s %r %r %r" % (n, a[n], b[n], c[n]))
        ok = ok and same and differs
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out")
    ap.add_argument("--repeatability", action="store_true")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in names:
            raise SystemExit("unknown workload %s" % w)
    if args.repeatability:
        ok = repeatability(spec, workloads)
    else:
        seeds = list(range(args.first_seed, args.first_seed + args.seeds))
        ok = steadiness(spec, workloads, seeds, args.sets, args.out)
    if WALL:
        # A full evaluation makes 4 + 22 runs per workload; estimate it
        # from the slowest runs seen.
        worst = {w: max(v) for w, v in WALL.items()}
        for w, v in sorted(WALL.items()):
            print("%-16s run wall: median %.1f s, max %.1f s" % (w, statistics.median(v), max(v)))
        print("22 runs per workload at the max, plus 4: %.0f s"
              % (22 * sum(worst.values()) + 4 * max(worst.values())))
    print("\nsteady: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
