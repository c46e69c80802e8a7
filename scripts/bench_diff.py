#!/usr/bin/env python3
"""Compare two BENCH_*.json files and flag perf regressions.

Usage:
  scripts/bench_diff.py BASELINE.json CURRENT.json [--threshold PCT]
      [--metric METRIC] [--json OUT.json]

Both inputs are the bench harness's JSON (bench_util.h WriteBenchJson):
a {"bench": ..., "results": [{"name", "wall_micros", ...}]} object. Rows
are matched by name; the default metric is wall_micros.

Tracked artifacts (all written by `--json` runs of their benches):
  BENCH_runtime.json       task-runner overhead     (bench_ext_dataflow)
  BENCH_cluster.json       1/2/4-worker cluster scaling
                                                    (bench_ext_dataflow)
  BENCH_rs.json            R-S |R|:|S| ratios       (bench_ext_dataflow)
  BENCH_ext_shuffle.json   external-shuffle spill   (bench_ext_shuffle)
  BENCH_kernels.json       kernel microbenches      (bench_micro_kernels)

Exit status: 0 when no row regressed past --threshold (default 10%),
1 on a regression, 2 on bad input. CI runs this non-gating (the diff is
an uploaded artifact, the step never fails the build) because micro
timings on shared runners are noisy; the threshold is for humans reading
the artifact and for local runs on quiet machines.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"bench_diff: cannot read {path}: {e}\n")
        sys.exit(2)
    if "results" not in data or not isinstance(data["results"], list):
        sys.stderr.write(f"bench_diff: {path} has no results array\n")
        sys.exit(2)
    return data


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent [10]")
    ap.add_argument("--metric", default="wall_micros",
                    help="result field to compare [wall_micros]")
    ap.add_argument("--json", dest="out_json", default=None,
                    help="also write the diff as JSON to this path")
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    base_rows = {r["name"]: r for r in base["results"] if "name" in r}
    cur_rows = {r["name"]: r for r in cur["results"] if "name" in r}

    rows = []
    regressions = []
    for name in sorted(base_rows.keys() | cur_rows.keys()):
        b = base_rows.get(name)
        c = cur_rows.get(name)
        if b is None or c is None:
            rows.append({"name": name, "status":
                         "added" if b is None else "removed"})
            continue
        bv = float(b.get(args.metric, 0.0))
        cv = float(c.get(args.metric, 0.0))
        if bv <= 0.0:
            rows.append({"name": name, "status": "no-baseline",
                         "baseline": bv, "current": cv})
            continue
        delta_pct = (cv - bv) / bv * 100.0
        status = "ok"
        if delta_pct > args.threshold:
            status = "regression"
            regressions.append(name)
        elif delta_pct < -args.threshold:
            status = "improvement"
        rows.append({"name": name, "status": status, "baseline": bv,
                     "current": cv, "delta_pct": round(delta_pct, 2)})

    width = max((len(r["name"]) for r in rows), default=4)
    print(f"bench_diff: {args.baseline} -> {args.current} "
          f"(metric={args.metric}, threshold={args.threshold:.1f}%)")
    for r in rows:
        if "delta_pct" in r:
            marker = {"regression": "!!", "improvement": "++"}.get(
                r["status"], "  ")
            print(f"  {marker} {r['name']:<{width}}  "
                  f"{r['baseline']:>12.1f} -> {r['current']:>12.1f}  "
                  f"{r['delta_pct']:>+8.2f}%")
        else:
            print(f"  ?? {r['name']:<{width}}  [{r['status']}]")

    summary = {
        "baseline": args.baseline,
        "current": args.current,
        "metric": args.metric,
        "threshold_pct": args.threshold,
        "regressions": regressions,
        "rows": rows,
    }
    if args.out_json:
        with open(args.out_json, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")

    if regressions:
        print(f"bench_diff: {len(regressions)} regression(s) past "
              f"{args.threshold:.1f}%: {', '.join(regressions)}")
        return 1
    print("bench_diff: no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
