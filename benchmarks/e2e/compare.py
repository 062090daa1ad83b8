#!/usr/bin/env python3
"""Compare two end-to-end results against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/compare.py A.json B.json

``A`` is the parent, ``B`` the change; both are results written by ``run.py``
(use ``--repeats`` so every metric has several values).  One row is printed
per (workload, end-to-end metric):

* ``unresolved`` — the run-to-run spread (widest interquartile range of the
  two sides, as a share of A's median) exceeds the metric's bound, so neither
  "unchanged" nor a gain can be claimed — unless every run of one side beats
  every run of the other, which resolves it;
* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the bound;
* ``unchanged`` — otherwise.

A workload on which B fails more ops than A is a regressed row of its own.
Exit status is 1 when any row regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Any

__all__ = ["classify", "collect", "compare", "main"]

BENCHMARK = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _iqr(values: "list[float]") -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def classify(a: "list[float]", b: "list[float]", better: str, bound: float) -> dict[str, Any]:
    """Verdict for one (workload, metric) pair; ``a`` is the parent's runs."""
    sign = 1.0 if better == "lower" else -1.0
    median_a, median_b = statistics.median(a), statistics.median(b)
    scale = abs(median_a) or 1.0
    worse = sign * (median_b - median_a) / scale
    spread = max(_iqr(a), _iqr(b)) / scale
    b_always_better = all(sign * y < sign * x for x in a for y in b)
    b_always_worse = all(sign * y > sign * x for x in a for y in b)
    if spread > bound and not (b_always_better or b_always_worse):
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regressed"
    elif worse < -bound:
        verdict = "improved"
    else:
        verdict = "unchanged"
    return {
        "median_a": median_a, "median_b": median_b,
        "worse": worse, "spread": spread, "verdict": verdict,
    }


def collect(result: dict[str, Any]) -> dict[str, dict[str, Any]]:
    """``{workload: {"values": {metric: [...]}, "failed": n}}`` of the untraced runs."""
    out: dict[str, dict[str, Any]] = {}
    for run in result["runs"]:
        if run["trace"]:
            continue
        entry = out.setdefault(run["workload"], {"values": {}, "failed": 0})
        entry["failed"] += run["failed"]
        for metric, cell in run["metrics"].items():
            entry["values"].setdefault(metric, []).append(cell["value"])
    return out


def compare(a: dict[str, Any], b: dict[str, Any], benchmark: dict[str, Any]) -> list[dict[str, Any]]:
    """All rows, workloads and metrics in ``BENCHMARK.json`` order."""
    side_a, side_b = collect(a), collect(b)
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        if workload not in side_a or workload not in side_b:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = classify(
                side_a[workload]["values"][name],
                side_b[workload]["values"][name],
                metric["better"],
                metric["bound"],
            )
            rows.append({"workload": workload, "metric": name, "bound": metric["bound"], **row})
        failed_a, failed_b = side_a[workload]["failed"], side_b[workload]["failed"]
        rows.append({
            "workload": workload, "metric": "failed_ops", "bound": 0.0,
            "median_a": failed_a, "median_b": failed_b,
            "worse": float(failed_b - failed_a), "spread": 0.0,
            "verdict": "regressed" if failed_b > failed_a else "unchanged",
        })
    return rows


def main(argv: "list[str] | None" = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in args)
    rows = compare(a, b, json.loads(BENCHMARK.read_text()))
    print(
        f"{'workload':26s} {'metric':16s} {'A median':>12s} {'B median':>12s} "
        f"{'worse by':>9s} {'spread':>8s} {'bound':>6s}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:26s} {row['metric']:16s} {row['median_a']:12.5f} "
            f"{row['median_b']:12.5f} {row['worse']:+9.2%} {row['spread']:8.2%} "
            f"{row['bound']:6.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
