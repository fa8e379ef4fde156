"""Compare two sets of perfbench runs, metric by metric and workload by
workload.

    python perfbench/compare.py PARENT.json CHANGE.json
    python perfbench/compare.py SET.json

Each file is the JSON list ``run.py --out`` appends to: several runs per
workload, made alternately on the two commits with identical benchmark
code.  Runs of a workload are paired in the order they were made.  For
every end-to-end metric on every workload one verdict is printed:

``gain``
    the change wins at least nine tenths of the pairs (ties count for
    neither side) and the medians differ by more than the distance
    between the parent's own quartiles;
``regression``
    the change's median is worse than the parent's by more than the
    bound ``BENCHMARK.json`` fixes for the metric;
``no-regression``
    it is not, and either the parent's spread is within the bound or
    every run of the change reads better than every run of the parent;
``unresolved``
    anything else: the spread is wider than the bound, so the runs made
    cannot tell.  Not the same as unchanged; make more or longer runs.

Exits 1 when any metric regressed.  With one file it prints, for that
set alone, each metric's median and its spread (the distance between
the quartiles as a share of the median), which is what a metric's bound
has to stand well clear of.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from harness import ROOT, iqr, median

#: Share of the pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float) -> str:
    """The verdict for one metric on one workload (see the module doc)."""
    sign = 1.0 if better == "higher" else -1.0     # larger is better
    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gap = sign * (median(change) - median(parent))
    if wins >= WIN_SHARE * len(pairs) and gap > iqr(parent):
        return "gain"
    scale = abs(median(parent))
    if -gap > bound * scale:
        return "regression"
    separated = min(sign * b for b in change) > max(sign * a for a in parent)
    if iqr(parent) <= bound * scale or separated:
        return "no-regression"
    return "unresolved"


def load_runs(path: Path) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per untraced run, in order]}}``."""
    runs: Dict[str, Dict[str, List[float]]] = {}
    for record in json.loads(path.read_text()):
        if record["trace"]:
            continue
        by_metric = runs.setdefault(record["workload"], {})
        for name, entry in record["result"]["metrics"].items():
            by_metric.setdefault(name, []).append(entry["value"])
    return runs


def compare(parent: Dict[str, Dict[str, List[float]]],
            change: Dict[str, Dict[str, List[float]]],
            declaration: Dict[str, Any]) -> List[Tuple[str, str, str, str]]:
    """``(workload, metric, verdict, detail)`` rows, one per end-to-end
    metric per workload present on both sides."""
    rows = []
    for workload in (w["name"] for w in declaration["workloads"]):
        if workload not in parent or workload not in change:
            continue
        for metric in declaration["end_to_end"]:
            a = parent[workload].get(metric["name"], [])
            b = change[workload].get(metric["name"], [])
            n = min(len(a), len(b))
            if n < 2:
                continue
            a, b = a[:n], b[:n]
            rows.append((
                workload, metric["name"],
                verdict(a, b, metric["better"], metric["bound"]),
                f"parent {median(a):.6g} (IQR {iqr(a):.3g})  "
                f"change {median(b):.6g} (IQR {iqr(b):.3g})  "
                f"{metric['unit']}  bound {metric['bound']:.0%}  "
                f"pairs {n}"))
    return rows


def spreads(runs: Dict[str, Dict[str, List[float]]],
            declaration: Dict[str, Any]) -> List[Tuple[str, str, str]]:
    """``(workload, metric, detail)`` rows for one set of runs."""
    rows = []
    for workload, by_metric in runs.items():
        for metric in declaration["end_to_end"]:
            values = by_metric.get(metric["name"], [])
            if len(values) < 2:
                continue
            rows.append((
                workload, metric["name"],
                f"median {median(values):.6g} {metric['unit']}  spread "
                f"{iqr(values) / abs(median(values)):.1%}  bound "
                f"{metric['bound']:.0%}  runs {len(values)}"))
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    declaration = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 1:
        for workload, metric, detail in spreads(load_runs(Path(argv[0])),
                                                declaration):
            print(f"{workload:15s} {metric:12s} {detail}")
        return 0
    rows = compare(load_runs(Path(argv[0])), load_runs(Path(argv[1])),
                   declaration)
    for workload, metric, result, detail in rows:
        print(f"{workload:15s} {metric:12s} {result:14s} {detail}")
    return 1 if any(row[2] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
