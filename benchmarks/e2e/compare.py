#!/usr/bin/env python3
"""Compare two ``result.json`` files of ``run.py``, metric by metric.

    python3 benchmarks/e2e/compare.py A/result.json B/result.json

One row per (end-to-end metric, workload): both medians (the bases), the
ratio B/A, how much worse B is in the metric's own direction, and each
side's run-to-run spread (interquartile range / median, as
``statistics.quantiles(values, n=4)`` gives it).  A row is

* ``unresolved`` when either side's spread exceeds the metric's bound — the
  runs cannot tell a change of that size from noise;
* ``regressed`` when B's median is worse than A's by more than the bound;
* ``ok`` otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Per-layer metrics have
no bound; they follow with both medians and the ratio, when both files hold
a traced pass.  Exit code 1 when a row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range over the median; None below two values."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else None


def worse_by(a: float, b: float, better: str) -> float:
    """Share of A's median by which B is worse (negative: B is better)."""
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def compare(a: Dict[str, Any], b: Dict[str, Any], section: str,
            declared: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    rows = []
    for metric in declared:
        for workload in a["workloads"]:
            cell_a = a["workloads"][workload][section].get(metric["name"])
            cell_b = b["workloads"].get(workload, {}).get(section, {}).get(metric["name"])
            if not cell_a or not cell_b or not cell_a["values"] or not cell_b["values"]:
                continue
            med_a = statistics.median(cell_a["values"])
            med_b = statistics.median(cell_b["values"])
            row = {
                "metric": metric["name"], "workload": workload, "unit": cell_a["unit"],
                "a": med_a, "b": med_b, "ratio": med_b / med_a if med_a else float("nan"),
                "spread_a": spread(cell_a["values"]), "spread_b": spread(cell_b["values"]),
            }
            bound = metric.get("bound")
            if bound is not None:
                row["worse_by"] = worse_by(med_a, med_b, metric["better"])
                noisy = any(s is not None and s > bound
                            for s in (row["spread_a"], row["spread_b"]))
                row["status"] = ("unresolved" if noisy
                                 else "regressed" if row["worse_by"] > bound else "ok")
            rows.append(row)
    return rows


def fmt_share(value: Optional[float]) -> str:
    return "    n/a" if value is None else f"{value:>7.1%}"


def render(rows: List[Dict[str, Any]]) -> List[str]:
    lines = [f"{'metric':<24} {'workload':<17} {'A median':>13} {'B median':>13} {'unit':<6}"
             f"{'B/A':>7} {'worse':>7} {'iqr A':>7} {'iqr B':>7}  status"]
    for r in rows:
        lines.append(
            f"{r['metric']:<24} {r['workload']:<17} {r['a']:>13.6g} {r['b']:>13.6g} "
            f"{r['unit']:<6}{r['ratio']:>7.3f} {fmt_share(r.get('worse_by'))} "
            f"{fmt_share(r['spread_a'])} {fmt_share(r['spread_b'])}  {r.get('status', '')}"
        )
    return lines


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    declared = json.loads(BENCHMARK.read_text())
    a, b = json.loads(args.a.read_text()), json.loads(args.b.read_text())
    rows = compare(a, b, "end_to_end", declared["end_to_end"])
    print("\n".join(render(rows)))
    layers = compare(a, b, "per_layer", declared["per_layer"])
    if layers:
        print()
        print("\n".join(render(layers)))
    for status in ("regressed", "unresolved"):
        hit = [f"{r['metric']}/{r['workload']}" for r in rows if r.get("status") == status]
        print(f"{status}: {len(hit)}" + (f"  ({', '.join(hit)})" if hit else ""))
    return 1 if any(r.get("status") == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
