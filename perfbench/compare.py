"""Compare two series files, per workload and end-to-end metric.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Both files come from ``series.py``, best from one invocation with two
checkouts so that run ``i`` of each side forms an alternating pair.  Each
metric reads:

* ``better``: the change wins at least 9 of every 10 pairs (ties count for
  neither side), there are at least 10 pairs, and the medians differ by
  more than the parent's interquartile distance;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound from BENCHMARK.json;
* ``unresolved``: neither, and the run-to-run spread of either side is wider
  than the bound, unless every run of the change reads better than every
  run of the parent;
* ``same``: otherwise.

``models_per_s`` and ``grams_per_s`` of the ``lattice`` workload split its
``records_per_s`` by population and use that metric's bound.  Exits 1 if
any metric reads ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import summary
from inputs import WORKLOADS
from series import DETAIL_RATES, metric_values

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    q1, parent_median, q3 = summary.quartiles(parent)
    gain = sign * (statistics.median(change) - parent_median)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > q3 - q1:
        return "better"
    if -gain > bound * abs(parent_median):
        return "worse"
    wide = summary.relative_spread(parent) > bound or summary.relative_spread(change) > bound
    all_better = all(sign * (c - p) > 0 for p in parent for c in change)
    return "unresolved" if wide and not all_better else "same"


def compare(parent: dict, change: dict, spec: dict) -> list[tuple[str, str, str, float, float]]:
    """``(workload, metric, verdict, parent median, change median)`` rows."""
    declared = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for workload in WORKLOADS:  # a no-regression claim needs every workload
        if workload not in parent["workloads"] or workload not in change["workloads"]:
            raise ValueError(f"workload {workload!r} is missing from a series file")
        p_runs, c_runs = parent["workloads"][workload]["runs"], change["workloads"][workload]["runs"]
        names = list(declared) + [n for n in DETAIL_RATES if n in p_runs[0]["detail"]]
        for name in names:
            m = declared.get(name, declared["records_per_s"])
            p_vals, c_vals = metric_values(p_runs, name), metric_values(c_runs, name)
            rows.append((workload, name, verdict(p_vals, c_vals, m["better"], m["bound"]),
                         statistics.median(p_vals), statistics.median(c_vals)))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    try:
        rows = compare(parent, change, spec)
    except ValueError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    for workload, name, result, p_med, c_med in rows:
        print(f"{workload:8s} {name:16s} {result:10s} parent {p_med:<12.6g} change {c_med:<12.6g}")
    return 1 if any(r[2] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
