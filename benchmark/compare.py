#!/usr/bin/env python3
"""Compares two benchmark result sets, one row per (workload, metric).

    python3 benchmark/compare.py A/results.json B/results.json

A is the base, B the candidate; both are written by benchmark/run.sh. For
every end-to-end metric named in BENCHMARK.json the row shows each side's
median and quartiles and a verdict against the metric's bound:

    worse       B is worse than A by more than the bound
    better      B is better than A by more than the bound
    same        the change is within the bound
    unresolved  either side's spread, (q3 - q1) / median, exceeds the bound

A workload that failed or crashed on B but not on A, or more failed joins on
B than on A, is also worse. Exits 1 if any verdict is worse, 2 on bad input.
Standard library only.
"""

import json
import os
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)["workloads"]


def load_specs():
    with open(BENCHMARK_JSON, encoding="utf-8") as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def spread(m):
    return (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0.0


def verdict(a, b, spec):
    """Returns (relative change, verdict); a positive change is worse."""
    if a["value"]:
        change = (b["value"] - a["value"]) / a["value"]
    else:
        change = 0.0 if b["value"] == a["value"] else float("inf")
    if spec["better"] == "higher":
        change = -change
    bound = spec["bound"]
    if max(spread(a), spread(b)) > bound:
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "same"


def side(m):
    return "%.6g [%.6g, %.6g]" % (m["value"], m["q1"], m["q3"])


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        specs = load_specs()
        base, cand = load(argv[1]), load(argv[2])
    except (OSError, ValueError, KeyError) as e:
        print("compare.py: %s" % e, file=sys.stderr)
        return 2

    print("%-15s %-12s %-36s %-36s %8s  %s" %
          ("workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
           "change", "verdict"))
    any_worse = False
    for workload in list(base) + [w for w in cand if w not in base]:
        a, b = base.get(workload), cand.get(workload)
        a_ok = a is not None and not a.get("crashed")
        b_ok = b is not None and not b.get("crashed")
        if not (a_ok and b_ok):
            state = "worse" if a_ok else "unresolved"
            any_worse |= state == "worse"
            print("%-15s %-12s %-36s %-36s %8s  %s" %
                  (workload, "-", "ok" if a_ok else "missing or crashed",
                   "ok" if b_ok else "missing or crashed", "-", state))
            continue
        for name, spec in specs.items():
            change, state = verdict(a["metrics"][name], b["metrics"][name],
                                    spec)
            any_worse |= state == "worse"
            print("%-15s %-12s %-36s %-36s %+7.1f%%  %s" %
                  (workload, name, side(a["metrics"][name]),
                   side(b["metrics"][name]), 100.0 * change, state))
        if b["failed_frac"] > a["failed_frac"]:
            any_worse = True
            print("%-15s %-12s %-36s %-36s %8s  worse" %
                  (workload, "failed_frac", a["failed_frac"],
                   b["failed_frac"], "-"))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
