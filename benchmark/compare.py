#!/usr/bin/env python3
"""Compare two benchmark results (parent vs change), one row per workload x
end-to-end metric. Standard library only.

    python3 benchmark/compare.py PARENT.json CHANGE.json
                                 [--claim METRIC:WORKLOAD ...]

Inputs are the results JSON files `benchmark/run.py` writes (suite mode).
Bounds and directions come from BENCHMARK.json.

Verdicts:
  ok          the change's median is not worse than the parent's by more
              than the metric's bound
  worse       it is
  unresolved  the parent's own spread (q3 - q1, as a share of its median)
              exceeds the bound, so the comparison cannot be decided —
              unless every change run beats every parent run (then ok)

--claim METRIC:WORKLOAD tests a claimed gain: run i of the change is paired
with run i of the parent; the claim holds when the change wins at least
nine tenths of the pairs (ties count for neither side) and the medians
differ, in the better direction, by more than the parent's q3 - q1.
Exit status: 1 when any row is `worse` or a claim fails, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    direction, bound = metric["better"], metric["bound"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    if all(better(c, p, direction) for c in change for p in parent):
        return "ok"
    if p_med != 0 and (p_q3 - p_q1) / abs(p_med) > bound:
        return "unresolved"
    worse_by = (c_med - p_med) / abs(p_med) if p_med else 0.0
    if direction == "higher":
        worse_by = -worse_by
    return "worse" if worse_by > bound else "ok"


def claim(parent, change, metric):
    pairs = list(zip(parent, change))
    direction = metric["better"]
    wins = sum(1 for p, c in pairs if better(c, p, direction))
    p_q1, p_q3 = quartiles(parent)
    gap = statistics.median(change) - statistics.median(parent)
    if direction == "lower":
        gap = -gap
    holds = wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1
    note = "" if len(pairs) >= 10 else " (fewer than 10 pairs)"
    return holds, (f"{wins}/{len(pairs)} pair wins, median gap {gap:.6g} "
                   f"vs parent q3-q1 {p_q3 - p_q1:.6g}{note}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC:WORKLOAD")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = json.loads(Path(args.parent).read_text())["workloads"]
    change = json.loads(Path(args.change).read_text())["workloads"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    status = 0
    print(f"{'workload':<20} {'metric':<18} {'parent med [q1,q3]':>34} "
          f"{'change med [q1,q3]':>34} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            print(f"{workload:<20} missing from one side")
            status = 1
            continue
        for name, metric in metrics.items():
            p = parent[workload]["end_to_end"].get(name, [])
            c = change[workload]["end_to_end"].get(name, [])
            if not p or not c:
                continue
            cells = []
            for values in (p, c):
                q1, q3 = quartiles(values)
                cells.append(f"{statistics.median(values):.6g} "
                             f"[{q1:.6g},{q3:.6g}]")
            result = verdict(p, c, metric)
            if result == "worse":
                status = 1
            print(f"{workload:<20} {name:<18} {cells[0]:>34} {cells[1]:>34} "
                  f"{metric['bound']:>6.3g}  {result}")

    for text in args.claim:
        name, _, workload = text.partition(":")
        if name not in metrics or workload not in parent:
            print(f"claim {text}: unknown metric or workload")
            status = 1
            continue
        holds, detail = claim(parent[workload]["end_to_end"][name],
                              change[workload]["end_to_end"][name],
                              metrics[name])
        print(f"claim {text}: {'holds' if holds else 'NOT met'} — {detail}")
        status = status if holds else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
