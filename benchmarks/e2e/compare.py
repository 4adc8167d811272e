#!/usr/bin/env python3
"""Compare two sets of e2e benchmark runs, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py --base A1.json A2.json A3.json \
                                      --new  B1.json B2.json B3.json

Each file is a ``run.py --json`` output.  Directions and regression
bounds come from ``BENCHMARK.json``.  Per side the median over the given
runs is taken; an end-to-end metric is

* ``worse`` / ``better`` when the new median differs from the base
  median by more than the metric's bound,
* ``unresolved`` when the run-to-run spread of either side (distance
  between its quartiles over its median) is wider than the bound —
  unless every new run reads better (worse) than every base run,
* ``unchanged`` otherwise.

Per-layer metrics have no bound and are listed with their change only.
Exits 1 when any end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

from collections import defaultdict
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(paths) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for path in paths:
        for run in json.loads(Path(path).read_text())["runs"]:
            for name, entry in run["metrics"].items():
                values[run["workload"], name].append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(median)


def worse_share(base: list[float], new: list[float], better: str) -> float:
    """Share of the base median by which the new median is worse."""
    sign = 1.0 if better == "lower" else -1.0
    base_median = statistics.median(base)
    difference = sign * (statistics.median(new) - base_median)
    if difference == 0:
        return 0.0
    if base_median == 0:
        return math.copysign(math.inf, difference)
    return difference / abs(base_median)


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(base), spread(new)) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    worse_by = worse_share(base, new, better)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def compare(base_paths, new_paths) -> tuple[list[tuple], bool]:
    base, new = load(base_paths), load(new_paths)
    rows = []
    regressed = False
    for kind in ("end_to_end", "per_layer"):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for metric in SPEC[kind]:
                key = (workload, metric["name"])
                if key not in base or key not in new:
                    continue
                bound = metric.get("bound")
                outcome = "-" if bound is None else verdict(
                    base[key], new[key], metric["better"], bound)
                regressed |= outcome == "worse"
                rows.append((workload, metric["name"], metric["unit"],
                             statistics.median(base[key]),
                             statistics.median(new[key]),
                             worse_share(base[key], new[key],
                                         metric["better"]),
                             max(spread(base[key]), spread(new[key])),
                             bound, outcome))
    return rows, regressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()
    rows, regressed = compare(args.base, args.new)
    print(f"{'workload':14s} {'metric':40s} {'unit':6s} {'base':>12s} "
          f"{'new':>12s} {'worse by':>9s} {'spread':>7s} {'bound':>6s} "
          f"verdict")
    for (workload, name, unit, base, new, worse_by, wide, bound,
         outcome) in rows:
        shown_bound = "" if bound is None else f"{bound:.2f}"
        print(f"{workload:14s} {name:40s} {unit:6s} {base:12.6g} "
              f"{new:12.6g} {worse_by:+9.3f} {wide:7.3f} "
              f"{shown_bound:>6s} {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
