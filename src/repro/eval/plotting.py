"""ASCII chart rendering — bar and line charts for the paper figures.

The tables in :mod:`repro.eval.tables` carry the exact numbers; these
charts make the *shape* of each figure (who wins, where the crossover
falls) visible directly in terminal output, next to the paper's plots.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence


def grouped_bar_chart(
    title: str,
    groups: Sequence[str],
    series: Dict[str, Sequence[float]],
    *,
    width: int = 40,
    log_scale: bool = False,
    value_format: str = "{:.1f}",
) -> str:
    """Several series per group — the shape of Figures 7-12."""
    if not series:
        raise ValueError("no series")
    for name, vals in series.items():
        if len(vals) != len(groups):
            raise ValueError(f"series {name!r} length mismatch")
    all_values = [v for vals in series.values() for v in vals]
    if any(v < 0 for v in all_values):
        raise ValueError("bar charts require non-negative values")

    if log_scale:
        floor = min((v for v in all_values if v > 0), default=1.0)

        def scale(v: float) -> float:
            return math.log10(v / floor) + 1.0 if v > 0 else 0.0

    else:

        def scale(v: float) -> float:
            return v

    peak = max((scale(v) for v in all_values), default=1.0) or 1.0
    name_w = max(len(name) for name in series)
    group_w = max(len(str(g)) for g in groups)

    lines = [f"== {title} =="]
    for gi, group in enumerate(groups):
        lines.append(f"{str(group).rjust(group_w)}:")
        for name, vals in series.items():
            v = vals[gi]
            bar = "#" * max(int(round(scale(v) / peak * width)), 1 if v > 0 else 0)
            lines.append(
                f"  {name.ljust(name_w)} | {bar} {value_format.format(v)}"
            )
    if log_scale:
        lines.append("(log scale)")
    return "\n".join(lines)


def line_chart(
    title: str,
    xs: Sequence[float],
    series: Dict[str, Sequence[float]],
    *,
    height: int = 12,
    width: int = 60,
    log_y: bool = False,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """A multi-series scatter/line chart on a character grid."""
    if not series:
        raise ValueError("no series")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ValueError(f"series {name!r} length mismatch")
    if len(xs) < 2:
        raise ValueError("need at least two x points")

    markers = "*o+x@%&"
    all_y = [y for ys in series.values() for y in ys]
    if log_y:
        if any(y <= 0 for y in all_y):
            raise ValueError("log_y requires positive values")
        transform = math.log10
    else:
        def transform(v: float) -> float:
            return v
    y_lo = min(transform(y) for y in all_y)
    y_hi = max(transform(y) for y in all_y)
    y_span = (y_hi - y_lo) or 1.0
    x_lo, x_hi = min(xs), max(xs)
    x_span = (x_hi - x_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        marker = markers[si % len(markers)]
        for x, y in zip(xs, ys):
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((transform(y) - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    lines = [f"== {title} =="]
    if y_label:
        lines.append(f"   y: {y_label}" + (" (log)" if log_y else ""))
    top = f"{10 ** y_hi if log_y else y_hi:.3g}"
    bottom = f"{10 ** y_lo if log_y else y_lo:.3g}"
    gutter = max(len(top), len(bottom))
    for i, row in enumerate(grid):
        label = top if i == 0 else bottom if i == height - 1 else ""
        lines.append(f"{label.rjust(gutter)} |{''.join(row)}")
    lines.append(f"{'':>{gutter}} +{'-' * width}")
    axis = f"{x_lo:.3g}".ljust(width - 6) + f"{x_hi:.3g}".rjust(6)
    lines.append(f"{'':>{gutter}}  {axis}")
    if x_label:
        lines.append(f"{'':>{gutter}}  x: {x_label}")
    legend = "   ".join(
        f"{markers[i % len(markers)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"{'':>{gutter}}  {legend}")
    return "\n".join(lines)


def crossover_points(
    xs: Sequence[float], a: Sequence[float], b: Sequence[float]
) -> List[float]:
    """The x positions where series ``a`` and ``b`` cross (linear
    interpolation between samples) — used to locate the CM-PuM/CM-IFP
    crossover of Figure 12."""
    if not (len(xs) == len(a) == len(b)):
        raise ValueError("length mismatch")
    crossings = []
    for i in range(1, len(xs)):
        d_prev = a[i - 1] - b[i - 1]
        d_cur = a[i] - b[i]
        if d_prev == 0:
            crossings.append(xs[i - 1])
        elif d_prev * d_cur < 0:
            frac = abs(d_prev) / (abs(d_prev) + abs(d_cur))
            crossings.append(xs[i - 1] + frac * (xs[i] - xs[i - 1]))
    if len(xs) >= 2 and a[-1] - b[-1] == 0:
        crossings.append(xs[-1])
    # Deduplicate adjacent detections.
    out: List[float] = []
    for c in crossings:
        if not out or abs(c - out[-1]) > 1e-12:
            out.append(c)
    return out


def sparkline(values: Sequence[float], *, chars: str = "▁▂▃▄▅▆▇█") -> str:
    """Compact one-line trend indicator for logs and summaries."""
    if not values:
        raise ValueError("empty sequence")
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    return "".join(
        chars[min(int((v - lo) / span * (len(chars) - 1)), len(chars) - 1)]
        for v in values
    )
