#!/usr/bin/env python3
"""A/B verdict for one perfbench workload: parent against change, in pairs.

    python3 tools/ab.py --base REV --change REV --workload W --pairs N
                        --seconds S --seeds A-B [--trace 0|1]
                        [--scratch DIR]

Run inside the repository.  Each revision is checked out with
`git worktree add --detach` under the scratch directory (a fresh temporary
directory by default; both worktrees are removed at the end) and runs its
own perfbench/run.py.  One discarded warm-up run per tree builds the
benchmark first.  Pair i runs seed A + (i mod (B - A + 1)) on both trees;
even pairs run the base first, odd pairs the change first.

For every metric it prints, as a markdown table, both medians, the gain (positive is better in
the direction BENCHMARK.json gives), the pairs the change won out of N,
the parent's interquartile range as a percentage of its median, and the
verdict: "gain" when the change won at least 9 pairs in 10 and its median
is better than the parent's by more than the parent's IQR.  Quartiles are
statistics.quantiles(n=4), as perfbench/steady.py takes them.  Each run's
child CPU seconds (resource.getrusage(RUSAGE_CHILDREN)) are reported as
cpu_s next to the metrics.

Exit status 1 if any run fails or reports "correct": false or failed > 0,
if cost_units_per_mod, charged_units_per_mod or slo_met_rate differ in
bits within a pair, or if a run's (workload, seed) is listed in
tools/exact_baseline.json and those metrics differ in bits from the
listed ones: they are deterministic per seed, so a change that moves
them changed what the benchmark computes.  The baseline holds each
metric's float.hex() for seeds 1-3 of every workload.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

EXACT = ("cost_units_per_mod", "charged_units_per_mod", "slo_met_rate")
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "exact_baseline.json")


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def better_by(base, change, better):
    """How much [change] improves on [base]: positive is better."""
    return change - base if better == "higher" else base - change


def verdict(base, change, better):
    """Summary of one metric over N pairs (base[i] and change[i] ran on the
    same seed).  A claim needs 9 wins in 10 and a median gap above the
    parent's IQR."""
    n = len(base)
    q1, bmed, q3 = quartiles(base)
    cmed = median(change)
    gap = better_by(bmed, cmed, better)
    wins = sum(1 for b, c in zip(base, change) if better_by(b, c, better) > 0)
    iqr = q3 - q1
    return {
        "base": bmed,
        "change": cmed,
        "gain_pct": 100.0 * gap / abs(bmed) if bmed else 0.0,
        "wins": wins,
        "pairs": n,
        "iqr_pct": 100.0 * iqr / abs(bmed) if bmed else 0.0,
        "claim": 10 * wins >= 9 * n and gap > iqr,
    }


def exact_mismatches(pairs):
    """The (pair index, metric) of every exact metric that differs in bits
    within a pair; [pairs] holds (base metrics, change metrics)."""
    out = []
    for i, (b, c) in enumerate(pairs):
        for m in EXACT:
            if m in b and m in c and float(b[m]).hex() != float(c[m]).hex():
                out.append((i, m))
    return out


def load_baseline(path=BASELINE):
    """{workload: {seed (str): {metric: float.hex()}}} from [path]."""
    with open(path) as f:
        return json.load(f)["workloads"]


def baseline_mismatches(baseline, workload, seed, metrics):
    """The (metric, listed hex, run's hex) of every exact metric of one run
    that differs from the baseline; none if its (workload, seed) is not
    listed.  A traced run reports no exact metrics, so it has none to
    differ."""
    listed = baseline.get(workload, {}).get(str(seed))
    if listed is None:
        return []
    return [(m, listed[m], float(metrics[m]).hex()) for m in EXACT
            if m in metrics and float(metrics[m]).hex() != listed[m]]


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError("seed range %s is empty" % text)
    return list(range(lo, hi + 1))


def git(*args, cwd=None):
    return subprocess.run(["git"] + list(args), cwd=cwd, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def run_once(tree, workload, seed, seconds, trace):
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if (done.returncode != 0 or result is None or result.get("correct") is not True
            or result.get("failed") != 0):
        raise SystemExit("ab: %s seed %d failed in %s (exit %d)"
                         % (workload, seed, tree, done.returncode))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["cpu_s"] = (after.ru_utime + after.ru_stime
                        - before.ru_utime - before.ru_stime)
    return metrics


def directions(tree):
    with open(os.path.join(tree, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = {m["name"]: m.get("better", "lower")
           for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}
    out["cpu_s"] = "lower"
    return out


def report(args, base_rev, change_rev, pairs, better):
    names = [m for m in pairs[0][0] if m in pairs[0][1]]
    rows = []
    for m in names:
        v = verdict([b[m] for b, _ in pairs], [c[m] for _, c in pairs],
                    better.get(m, "lower"))
        rows.append((m, v))
    print("%s seeds %s, %d pairs, --seconds %d: base %s, change %s"
          % (args.workload, args.seeds, len(pairs), args.seconds,
             base_rev[:10], change_rev[:10]))
    print("| metric | base median | change median | gain | wins | base IQR | verdict |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for m, v in rows:
        print("| `%s` | %.6g | %.6g | %+.1f%% | %d/%d | %.1f%% | %s |"
              % (m, v["base"], v["change"], v["gain_pct"], v["wins"], v["pairs"],
                 v["iqr_pct"], "gain" if v["claim"] else "-"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--seeds", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", help="directory for the two worktrees")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: quartiles need two runs a side")

    root = git("rev-parse", "--show-toplevel")
    base_rev = git("rev-parse", "--verify", args.base + "^{commit}", cwd=root)
    change_rev = git("rev-parse", "--verify", args.change + "^{commit}", cwd=root)
    baseline = load_baseline()
    scratch = args.scratch or tempfile.mkdtemp(prefix="ab-")
    os.makedirs(scratch, exist_ok=True)
    trees = {"base": os.path.join(scratch, "base"),
             "change": os.path.join(scratch, "change")}
    try:
        for side, rev in (("base", base_rev), ("change", change_rev)):
            git("worktree", "add", "--detach", "--force", trees[side], rev, cwd=root)
        for side in ("base", "change"):
            run_once(trees[side], args.workload, seeds[0], 1, args.trace)
        pairs = []
        off_baseline = []
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {side: run_once(trees[side], args.workload, seed, args.seconds,
                                  args.trace) for side in order}
            pairs.append((got["base"], got["change"]))
            for side in order:
                for m, want, have in baseline_mismatches(baseline, args.workload,
                                                         seed, got[side]):
                    off_baseline.append((i, side, seed, m, want, have))
            print("pair %d seed %d (%s first): mods_per_s %s -> %s"
                  % (i + 1, seed, order[0], got["base"].get("mods_per_s"),
                     got["change"].get("mods_per_s")), file=sys.stderr, flush=True)
        report(args, base_rev, change_rev, pairs, directions(trees["base"]))
        bad = exact_mismatches(pairs)
        for i, m in bad:
            print("ab: pair %d: %s differs: %r vs %r"
                  % (i + 1, m, pairs[i][0][m], pairs[i][1][m]), file=sys.stderr)
        for i, side, seed, m, want, have in off_baseline:
            print("ab: pair %d, %s, seed %d: %s is %s, exact_baseline.json lists %s"
                  % (i + 1, side, seed, m, have, want), file=sys.stderr)
        return 1 if bad or off_baseline else 0
    finally:
        for tree in trees.values():
            if os.path.isdir(tree):
                subprocess.run(["git", "worktree", "remove", "--force", tree],
                               cwd=root, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL)
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
