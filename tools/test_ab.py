#!/usr/bin/env python3
"""Unit test of tools/ab.py's arithmetic and exact-baseline check on fixed
numbers, and the shape of tools/exact_baseline.json (no runs)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import ab  # noqa: E402


def check(name, got, want):
    if got != want:
        raise SystemExit("test_ab: %s: got %r, want %r" % (name, got, want))


base = [100.0, 104.0, 96.0, 110.0, 90.0, 102.0, 98.0, 106.0, 94.0, 100.0]
# exclusive quartiles of the sorted base 90 94 96 98 100 100 102 104 106 110
check("median", ab.median(base), 100.0)
check("quartiles", ab.quartiles(base), (95.5, 100.0, 104.5))

# +12 on every pair but one: 9/10 wins, a median gap of 11 over an IQR of 9
change = [b + 12.0 for b in base]
change[3] = 105.0
v = ab.verdict(base, change, "higher")
check("wins", v["wins"], 9)
check("change median", v["change"], 111.0)
check("gain", round(v["gain_pct"], 6), 11.0)
check("iqr", round(v["iqr_pct"], 6), 9.0)
check("claim", v["claim"], True)

# the same numbers read as a lower-is-better metric: a loss, no claim
v = ab.verdict(base, change, "lower")
check("lower wins", v["wins"], 1)
check("lower gain", round(v["gain_pct"], 6), -11.0)
check("lower claim", v["claim"], False)

# 10/10 wins but a gap of 8 under the IQR of 9: no claim
v = ab.verdict(base, [b + 8.0 for b in base], "higher")
check("small gap wins", v["wins"], 10)
check("small gap claim", v["claim"], False)

# 8/10 wins with a large gap: no claim
change = [b + 20.0 for b in base]
change[0] = change[1] = 0.0
check("eight wins", ab.verdict(base, change, "higher")["claim"], False)

# ties are not wins
check("ties", ab.verdict(base, list(base), "higher")["wins"], 0)

# exact metrics must agree in bits within a pair
same = {"cost_units_per_mod": 23.1395, "slo_met_rate": 1.0, "mods_per_s": 5.0}
moved = dict(same, cost_units_per_mod=23.1395 + 2e-15, mods_per_s=6.0)
check("exact same", ab.exact_mismatches([(same, dict(same, mods_per_s=9.0))]), [])
check("exact moved", ab.exact_mismatches([(same, same), (same, moved)]),
      [(1, "cost_units_per_mod")])

# runs against the checked-in exact baseline, on a synthetic one
baseline = {"w": {"1": {"cost_units_per_mod": (23.1395).hex(),
                        "charged_units_per_mod": (18.5533).hex(),
                        "slo_met_rate": (1.0).hex()}}}
run = {"cost_units_per_mod": 23.1395, "charged_units_per_mod": 18.5533,
       "slo_met_rate": 1, "mods_per_s": 5.0}
check("baseline match", ab.baseline_mismatches(baseline, "w", 1, run), [])
check("baseline unlisted seed", ab.baseline_mismatches(baseline, "w", 4, {}), [])
check("baseline unlisted workload", ab.baseline_mismatches(baseline, "v", 1, {}), [])
check("baseline mismatch",
      ab.baseline_mismatches(baseline, "w", 1, dict(run, slo_met_rate=0.75)),
      [("slo_met_rate", (1.0).hex(), (0.75).hex())])
check("baseline traced run",
      ab.baseline_mismatches(baseline, "w", 1, {"mods_per_s": 5.0}), [])
check("baseline one metric moved",
      ab.baseline_mismatches(baseline, "w", 1, {"cost_units_per_mod": 23.1395 + 2e-15}),
      [("cost_units_per_mod", (23.1395).hex(), (23.1395 + 2e-15).hex())])

# the checked-in baseline: seeds 1-3 of every workload, every exact metric
listed = ab.load_baseline()
check("baseline workloads", sorted(listed),
      ["paper-durable", "serve-fleet", "skew-partition"])
for w, seeds in listed.items():
    check("baseline seeds of " + w, sorted(seeds), ["1", "2", "3"])
    for seed, metrics in seeds.items():
        check("baseline metrics of %s seed %s" % (w, seed), sorted(metrics),
              sorted(ab.EXACT))
        for m, bits in metrics.items():
            check("hex of %s" % m, float.fromhex(bits).hex(), bits)

check("seeds", ab.parse_seeds("11-14"), [11, 12, 13, 14])
check("one seed", ab.parse_seeds("7"), [7])
print("test_ab: ok")
