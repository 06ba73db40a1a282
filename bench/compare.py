"""``python3 -m bench.run --compare A.json B.json``: a before/after table.

For each (workload, metric) of two ``--out`` files: both medians over
the repeats, B's relative difference from A, the end-to-end bound, and
a label — ``unresolved`` when either side's run-to-run spread (quartile
distance over the repeats, as a share of the median) is wider than the
bound, else ``regressed`` when B is worse than A by more than the
bound, else ``ok``.  Per-layer metrics have no bound and no label.
Exits 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from bench.metrics import END_TO_END, PER_LAYER, spread


def _values(path: str) -> Dict[Tuple[str, str], List[float]]:
    out: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    for run in json.loads(Path(path).read_text())["runs"]:
        for name, metric in run["metrics"].items():
            out[(run["workload"], name)].append(metric["value"])
    return out


def verdict(a: List[float], b: List[float], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    worse = (new - base) / base if better == "lower" else (base - new) / base
    return "regressed" if worse > bound else "ok"


def main(path_a: str, path_b: str) -> int:
    a, b = _values(path_a), _values(path_b)
    catalogue = {m.name: m for m in END_TO_END + PER_LAYER}
    regressed = 0
    print(f"{'workload':18s} {'metric':40s} {'A':>12s} {'B':>12s} "
          f"{'diff':>8s} {'spread A/B':>13s} {'bound':>6s}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, name = key
        metric = catalogue[name]
        base, new = statistics.median(a[key]), statistics.median(b[key])
        diff = f"{(new - base) / base:+8.1%}" if base else f"{'n/a':>8s}"
        spreads = f"{spread(a[key]):6.1%}/{spread(b[key]):6.1%}"
        if metric.bound is None:
            bound, label = "", ""
        else:
            bound = f"{metric.bound:.0%}"
            label = verdict(a[key], b[key], metric.better, metric.bound)
            regressed += label == "regressed"
        print(f"{workload:18s} {name:40s} {base:12.6g} {new:12.6g} "
              f"{diff} {spreads:>13s} {bound:>6s}  {label}")
    return 1 if regressed else 0
