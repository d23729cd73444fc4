"""Compare a parent's benchmark runs with a change's, pair by pair.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Each file holds the runs that repeated ``benchmark.py --out FILE``
calls added.  Run i of PARENT is paired with run i of CHANGE, so make
the runs in pairs with the same ``--seed``, alternating which side runs
first, at least ten pairs (README.md, "Comparing two commits").

One row per (workload, end-to-end metric), judged against the bounds in
BENCHMARK.json, in this order:

* ``unresolved`` - the parent's own spread (quartile distance over
  median) is wider than the bound, unless every change run reads
  better than every parent run;
* ``regressed``  - the change's median is worse than the parent's by
  more than the bound;
* ``gain``       - the change wins at least 9/10 of all pairs (ties
  count for neither), over at least ten pairs, and the medians differ
  by more than the parent's quartile distance, in the better direction;
* ``unchanged``  - otherwise.

Exits 1 when any row regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

from benchlib import load_spec

MIN_PAIRS = 10
WIN_FRACTION = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_runs(path: str) -> List[dict]:
    with open(path) as fh:
        return [r for r in json.load(fh)["runs"] if not r["trace"]]


def series(runs: List[dict]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values in run order."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for workload, entry in run["workloads"].items():
            for name, row in entry["metrics"].items():
                out.setdefault((workload, name), []).append(row["value"])
    return out


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, dict]:
    """Judge one (workload, metric) row; returns (verdict, numbers)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    iqr = p_q3 - p_q1
    spread = iqr / abs(p_med) if p_med else float("inf")
    worse_by = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    numbers = {"pairs": len(pairs), "wins": wins,
               "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
               "spread": spread, "worse_by": worse_by}
    if spread > bound and not all_better:
        return "unresolved", numbers
    if worse_by > bound:
        return "regressed", numbers
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_FRACTION * len(pairs)
            and sign * (c_med - p_med) > iqr):
        return "gain", numbers
    return "unchanged", numbers


def compare(parent_runs: List[dict], change_runs: List[dict],
            spec: dict) -> List[dict]:
    meta = {m["name"]: m for m in spec["end_to_end"]}
    a, b = series(parent_runs), series(change_runs)
    rows = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in meta:
            continue
        n = min(len(a[key]), len(b[key]))
        result, numbers = verdict(a[key][:n], b[key][:n],
                                  meta[name]["better"], meta[name]["bound"])
        rows.append({"workload": workload, "metric": name,
                     "unit": meta[name]["unit"], "bound": meta[name]["bound"],
                     "verdict": result, **numbers})
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':<11} {'metric':<12} {'parent q1/med/q3':>30}  "
             f"{'change q1/med/q3':>30}  {'wins':>6} {'spread':>7} "
             f"{'worse':>7} {'bound':>6}  verdict"]
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        lines.append(f"{r['workload']:<11} {r['metric']:<12} {p:>30}  "
                     f"{c:>30}  {r['wins']:>2}/{r['pairs']:<3} "
                     f"{r['spread']:>7.1%} {r['worse_by']:>7.1%} "
                     f"{r['bound']:>6.0%}  {r['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="perfbench/compare.py",
        description="Pairwise comparison of two sets of benchmark runs")
    p.add_argument("parent", help="runs of the parent commit (--out FILE)")
    p.add_argument("change", help="runs of the change, paired by order")
    args = p.parse_args(argv)
    rows = compare(load_runs(args.parent), load_runs(args.change),
                   load_spec())
    if not rows:
        print("no (workload, metric) pair appears in both files",
              file=sys.stderr)
        return 2
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
