"""Compare two result files of ``run.py --out``: ``compare.py a.json b.json``.

For every (workload, end-to-end metric) pair prints both values, the
spread of each side's repeats, the change of ``b`` against ``a`` (its
base), the bound, and a verdict:

``better`` / ``worse``   ``b`` differs from ``a`` by more than the bound
``within``               it does not
``unresolved``           the repeats of either side spread wider than the
                         bound *and* the two sides' repeats overlap, so
                         the data cannot tell a change from noise

The exact per-layer counters are listed too, with ``=`` or ``DIFFERS``.
Exit status 1 when any pair is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import List, Sequence

from metrics import ABSOLUTE_BOUND, END_TO_END, Metric

#: program-made counts that must repeat exactly for one commit and seed
EXACT_COUNTERS = (
    "he.hom_adds_per_query",
    "serve.scheduler.io_requests_per_query",
    "serve.scheduler.modeled_makespan_s",
    "load.offered",
)


def verdict(metric: Metric, a: dict, b: dict) -> str:
    """``a`` and ``b`` are end-to-end rows: value, per_repeat, spread."""
    sign = 1.0 if metric.better == "lower" else -1.0
    base = 1.0 if metric.name in ABSOLUTE_BOUND else abs(a["value"])
    worse_by = sign * (b["value"] - a["value"]) / base if base else 0.0
    noisy = max(a["max"] - a["min"], b["max"] - b["min"]) > metric.bound * base
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if metric.bound and noisy and overlap:  # a zero bound takes no excuse
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "within"


def compare(a: dict, b: dict) -> List[Sequence]:
    rows = []
    for name, left in a["workloads"].items():
        right = b["workloads"].get(name)
        if right is None:
            continue
        for metric in END_TO_END:
            x, y = left["end_to_end"][metric.name], right["end_to_end"][metric.name]
            if x["value"] is None or y["value"] is None:
                continue  # the metric does not apply to this workload
            delta = (y["value"] - x["value"]) / x["value"] if x["value"] else 0.0
            rows.append((
                name, metric.name, metric.unit, x["value"], x["spread"],
                y["value"], y["spread"], delta, metric.bound, verdict(metric, x, y),
            ))
        for counter in EXACT_COUNTERS:
            x, y = left["per_layer"][counter]["value"], right["per_layer"][counter]["value"]
            rows.append((name, counter, "exact", x, 0.0, y, 0.0, 0.0, 0.0,
                         "=" if x == y else "DIFFERS"))
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(f"{'workload':20} {'metric':22} {'unit':6} {'a':>12} {'a spread':>9} "
          f"{'b':>12} {'b spread':>9} {'b vs a':>8} {'bound':>6}  verdict")
    for name, metric, unit, x, xs, y, ys, delta, bound, word in rows:
        print(f"{name:20} {metric:22} {unit:6} {x:12.4f} {xs * 100:8.1f}% "
              f"{y:12.4f} {ys * 100:8.1f}% {delta * 100:+7.1f}% {bound * 100:5.1f}%  {word}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
