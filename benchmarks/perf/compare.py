#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Give the ``--out`` files of runs made alternately on the parent and on
the change, in run order; the i-th parent file is paired with the i-th
change file::

    python3 benchmarks/perf/compare.py --parent p1.json p2.json ... \\
                                       --change c1.json c2.json ...

For every workload and metric the report gives each side's median and
quartiles, the share of pairs the change won (ties count for neither)
and a label, by the bounds and directions in ``BENCHMARK.json``:

* ``improved`` -- at least ten pairs, the change won at least 9 of 10
  of them, and the medians differ by more than the parent's
  interquartile range;
* ``unresolved`` -- the parent's own spread is wider than the bound, and
  not every change run reads better than every parent run; or the
  change would read ``improved`` but some change run failed a check or
  failed more operations than the parent runs did (a gain does not
  count when more operations fail);
* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound (metrics without a bound: the parent won at
  least 9 of 10 pairs by more than its interquartile range);
* ``unchanged`` -- none of the above.

Pairs are formed by file position; a pair in which either run lacks a
metric (for example because its measuring process failed) is left out
of that metric's comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SPEC = HERE.parents[1] / "BENCHMARK.json"

WIN_SHARE = 0.9
#: Fewer pairs than this never support an improvement claim.
MIN_PAIRS = 10


def load_spec(path: Path = SPEC) -> Dict[str, Dict[str, Any]]:
    """Metric name -> its BENCHMARK.json entry (end-to-end and per-layer)."""
    doc = json.loads(path.read_text())
    return {m["name"]: m for m in (*doc["end_to_end"], *doc["per_layer"])}


def load_results(paths: Iterable[str], spec: Dict[str, Any]) -> List[Dict[str, Dict[str, Any]]]:
    """Per file: workload -> ``metrics`` (name -> value), ``failed`` and
    ``failures`` (the names of the checks that failed)."""
    out = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        run: Dict[str, Dict[str, Any]] = {}
        for workload, result in doc["workloads"].items():
            values = {name: result[name] for name in spec if name in result}
            values.update(result.get("layers", {}))
            run[workload] = {
                "metrics": values,
                "failed": int(result.get("failed", 0)),
                "failures": list(result.get("failures", [])),
            }
        out.append(run)
    return out


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(parent: List[float], change: List[float], better: str,
          bound: Optional[float]) -> Tuple[str, float]:
    """Label one (workload, metric) and return the change's share of wins."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = min(len(parent), len(change))
    share = wins / pairs if pairs else 0.0
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    gain = sign * (cm - pm)
    if pairs >= MIN_PAIRS and share >= WIN_SHARE and gain > iqr:
        return "improved", share
    if bound is None:
        lost = losses / pairs if pairs else 0.0
        return ("regressed" if lost >= WIN_SHARE and -gain > iqr else "unchanged"), share
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if pm and iqr / abs(pm) > bound and not all_better:
        return "unresolved", share
    if pm and -gain / abs(pm) > bound:
        return "regressed", share
    return "unchanged", share


def change_failed_more(pairs: List[Tuple[Dict[str, Any], Dict[str, Any]]]) -> bool:
    """True if a change run failed a check, or the change runs failed
    more operations than their parent runs."""
    return (any(c["failures"] for _, c in pairs)
            or sum(c["failed"] for _, c in pairs) > sum(p["failed"] for p, _ in pairs))


def compare(parent_runs, change_runs, spec) -> List[Dict[str, Any]]:
    rows = []
    workloads = sorted({w for run in (*parent_runs, *change_runs) for w in run})
    for workload in workloads:
        pairs = [(p[workload], c[workload]) for p, c in zip(parent_runs, change_runs)
                 if workload in p and workload in c]
        suspect = change_failed_more(pairs)
        names = sorted({m for pair in pairs for side in pair for m in side["metrics"]})
        for name in names:
            both = [(p["metrics"][name], c["metrics"][name]) for p, c in pairs
                    if name in p["metrics"] and name in c["metrics"]]
            if not both:
                continue
            parent = [p for p, _ in both]
            change = [c for _, c in both]
            entry = spec.get(name, {})
            label, share = judge(parent, change, entry.get("better", "lower"), entry.get("bound"))
            if label == "improved" and suspect:
                label = "unresolved"
            rows.append({
                "workload": workload, "metric": name, "unit": entry.get("unit", ""),
                "parent": quartiles(parent), "change": quartiles(change),
                "won": share, "pairs": len(both), "label": label,
                "change_failed_more": suspect,
            })
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<8} {'metric':<32} {'parent q1/median/q3':>32} "
             f"{'change q1/median/q3':>32} {'won':>6}  label"]
    for row in rows:
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        note = "  (change failed checks or more operations)" if row["change_failed_more"] else ""
        lines.append(f"{row['workload']:<8} {row['metric']:<32} {p:>32} {c:>32} "
                     f"{row['won']:>6.0%}  {row['label']}{note}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent result files")
    parser.add_argument("--change", nargs="+", required=True, help="change result files")
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give as many parent files as change files (one per pair)")
    spec = load_spec()
    rows = compare(load_results(args.parent, spec), load_results(args.change, spec), spec)
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
