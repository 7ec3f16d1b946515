#!/usr/bin/env python3
"""Check one perfbench run's exact metrics against tools/exact_baseline.json.

    python3 perfbench/run.py --workload W --seed S --seconds 1 --trace 0 \
        | tail -n 1 | python3 tools/exact_check.py W S

Reads the run's result line (one JSON object) on stdin.  Exits 1 unless
the baseline lists (W, S) and the run reports cost_units_per_mod,
charged_units_per_mod and slo_met_rate with exactly the listed bits.  A
traced run reports none of them, so only an untraced run can pass.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


def problems(baseline, workload, seed, result):
    """Why the run's exact metrics do not match the baseline; none if they do."""
    if str(seed) not in baseline.get(workload, {}):
        return ["%s seed %s is not in the baseline" % (workload, seed)]
    metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    missing = ["%s not reported" % m for m in ab.EXACT if m not in metrics]
    return missing + ["%s: baseline %s, run %s" % mismatch for mismatch in
                      ab.baseline_mismatches(baseline, workload, seed, metrics)]


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__.split("\n\n")[1])
    workload, seed = argv[1], int(argv[2])
    found = problems(ab.load_baseline(), workload, seed, json.load(sys.stdin))
    for p in found:
        print("exact_check: %s seed %d: %s" % (workload, seed, p), file=sys.stderr)
    if found:
        return 1
    print("exact_check: %s seed %d: %s match the baseline"
          % (workload, seed, ", ".join(ab.EXACT)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
