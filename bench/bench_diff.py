#!/usr/bin/env python3
"""Compares two benchmark runs per metric and flags what moved.

Two forms:

  bench_diff.py PARENT CHANGE
      PARENT and CHANGE are files of perfbench/run.py result lines (one
      JSON object with a "metrics" member per line; other lines, such as
      run.py's env line, are skipped). Each side may hold one run or
      several.

  bench_diff.py --bench BENCH_x.json --block KEY [--section NAME]
      Reads the parent and change sides recorded in a committed
      BENCH_*.json: the run list results[KEY] (records with "side" and
      "metrics") when it exists, else the summary block summary[KEY]
      (<side>_median / <side>_q1 / <side>_q3 per metric). --section
      descends into one top-level object of the file first.

For every metric both sides report it prints the parent's median and
quartiles, the change's median and the relative change, and flags the
change when it is larger than the parent's recorded spread (its
interquartile range; a single parent run has none, so nothing is
flagged). A flag says whether the move is better or worse, by the
"better" direction BENCHMARK.json gives the metric. When both sides have
the same number of runs it also counts the pairs (in order) the change
won. It only reports: the exit status is 0 whatever moved.
"""

import argparse
import json
import os
import statistics
import sys


def quartiles(values):
    """Median and quartiles, or (v, v, v) for a single value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def metric_values(metrics):
    """{name: value} from a result line ({"value": v}) or a record (v)."""
    return {name: (entry["value"] if isinstance(entry, dict) else entry)
            for name, entry in metrics.items()}


def runs_from_lines(path):
    runs = []
    with open(path) as lines:
        for line in lines:
            try:
                document = json.loads(line)
            except ValueError:
                continue
            if isinstance(document, dict) and "metrics" in document:
                runs.append(metric_values(document["metrics"]))
    if not runs:
        sys.exit(f"bench_diff: no result lines in {path}")
    return runs


def side_from_runs(runs):
    """{metric: {"median", "q1", "q3", "runs"}} over a list of runs."""
    side = {}
    for name in runs[0]:
        values = [run[name] for run in runs if name in run]
        median, q1, q3 = quartiles(values)
        side[name] = {"median": median, "q1": q1, "q3": q3, "runs": values}
    return side


def sides_from_bench(path, section, block):
    with open(path) as file:
        document = json.load(file)
    if section is not None:
        document = document[section]
    records = document.get("results", {}).get(block)
    if records is not None:
        return tuple(
            side_from_runs([metric_values(r["metrics"]) for r in records
                            if r["side"] == name])
            for name in ("parent", "change"))
    summary = document["summary"][block]
    sides = ({}, {})
    for name, entry in summary.items():
        if not isinstance(entry, dict) or "parent_median" not in entry:
            continue
        for side, prefix in zip(sides, ("parent", "change")):
            side[name] = {"median": entry[f"{prefix}_median"],
                          "q1": entry.get(f"{prefix}_q1", entry[f"{prefix}_median"]),
                          "q3": entry.get(f"{prefix}_q3", entry[f"{prefix}_median"]),
                          "runs": None}
    return sides


def directions():
    """metric name -> "higher" | "lower", from BENCHMARK.json."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                        "BENCHMARK.json")
    try:
        with open(path) as file:
            benchmark = json.load(file)
    except OSError:
        return {}
    return {m["name"]: m["better"]
            for group in ("end_to_end", "per_layer")
            for m in benchmark.get(group, [])}


def report(parent, change):
    better = directions()
    print(f"{'metric':<28} {'parent median [q1, q3]':>32} {'change':>12} "
          f"{'delta':>8}  flag")
    for name in parent:
        if name not in change:
            continue
        p, c = parent[name], change[name]
        delta = c["median"] - p["median"]
        pct = 100.0 * delta / p["median"] if p["median"] else float("nan")
        spread = p["q3"] - p["q1"]
        flag = ""
        if spread > 0 and abs(delta) > spread:
            direction = better.get(name)
            if direction is None:
                flag = "moved beyond the parent's spread"
            else:
                improved = (delta > 0) == (direction == "higher")
                flag = "better" if improved else "WORSE"
                flag += " beyond the parent's spread"
        if p["runs"] and c["runs"] and len(p["runs"]) == len(c["runs"]) > 1:
            direction = better.get(name, "higher")
            wins = sum((cv > pv) == (direction == "higher") and cv != pv
                       for pv, cv in zip(p["runs"], c["runs"]))
            flag = f"{wins}/{len(p['runs'])} pairs won" + (
                f"; {flag}" if flag else "")
        quart = f"{p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}]"
        print(f"{name:<28} {quart:>32} {c['median']:>12.4g} {pct:>+7.1f}%  "
              f"{flag}")


def main():
    parser = argparse.ArgumentParser(
        description="Per-metric comparison of two benchmark runs "
                    "(reports only; never fails on a regression).")
    parser.add_argument("files", nargs="*",
                        help="PARENT and CHANGE files of result lines")
    parser.add_argument("--bench", help="a committed BENCH_*.json")
    parser.add_argument("--block", help="results/summary key in --bench")
    parser.add_argument("--section", help="top-level object of --bench")
    args = parser.parse_args()
    if args.bench is not None:
        if args.block is None or args.files:
            parser.error("--bench takes --block and no positional files")
        parent, change = sides_from_bench(args.bench, args.section, args.block)
    elif len(args.files) == 2:
        parent = side_from_runs(runs_from_lines(args.files[0]))
        change = side_from_runs(runs_from_lines(args.files[1]))
    else:
        parser.error("give PARENT and CHANGE files, or --bench and --block")
    report(parent, change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
