"""Text rendering of experiment results: aligned tables and ASCII charts.

The benchmark harness prints these so ``pytest benchmarks/ --benchmark-only``
regenerates, in text form, the same rows/series the paper's figures plot.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..obs.report import format_table
from .figures import CoexistencePoint, SweepResult


def format_sweep(result: SweepResult, metric: str = "goodput") -> str:
    """Figs 5.8–5.13 as a table: one row per hop count, one column per
    variant.  ``metric`` is "goodput" (kbps) or "retransmits"."""
    headers = ["hops"] + list(result.variants)
    rows: List[List[object]] = []
    for hops in result.hops:
        row: List[object] = [hops]
        for variant in result.variants:
            point = result.points[(variant, hops)]
            if metric == "goodput":
                row.append(f"{point.goodput_kbps:8.1f}")
            elif metric == "retransmits":
                row.append(f"{point.retransmits:8.1f}")
            else:
                raise ValueError(f"unknown metric {metric!r}")
        rows.append(row)
    unit = "kbps" if metric == "goodput" else "count"
    title = f"window_={result.window}  ({metric}, {unit})"
    return format_table(headers, rows, title=title)


def format_coexistence(
    points: Sequence[CoexistencePoint], label_a: str, label_b: str
) -> str:
    """Figs 5.16–5.18 as a table."""
    headers = ["hops", f"{label_a} (kbps)", f"{label_b} (kbps)", "Jain index"]
    rows = [
        [p.hops, f"{p.goodput_a_kbps:8.1f}", f"{p.goodput_b_kbps:8.1f}", f"{p.fairness:.3f}"]
        for p in points
    ]
    return format_table(headers, rows, title=f"{label_a} vs {label_b} on h-hop cross")


def ascii_series(
    series: Sequence[Tuple[float, float]],
    width: int = 64,
    label: str = "",
) -> str:
    """Tiny ASCII line chart, twelve rows tall, of an (x, y) series (for
    examples / benches)."""
    if not series:
        return f"{label}: (no data)"
    xs = [x for x, _ in series]
    ys = [y for _, y in series]
    y_max = max(ys) or 1.0
    x_min, x_max = min(xs), max(xs)
    span = (x_max - x_min) or 1.0
    height = 12
    grid = [[" "] * width for _ in range(height)]
    for x, y in series:
        col = int((x - x_min) / span * (width - 1))
        row = int((1.0 - y / y_max) * (height - 1))
        grid[row][col] = "*"
    lines = [f"{label}  (max={y_max:.1f})"] if label else []
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f" x: {x_min:.1f} .. {x_max:.1f}")
    return "\n".join(lines)


def format_traces_summary(
    traces: Dict[str, List[Tuple[float, float]]], sim_time: float
) -> str:
    """Figs 5.2–5.7 summary: per-variant cwnd statistics and chart."""
    from ..stats.timeseries import time_average

    blocks: List[str] = []
    headers = ["variant", "mean cwnd", "max cwnd", "changes"]
    rows = []
    for variant, trace in traces.items():
        mean = time_average(trace, 0.0, sim_time)
        peak = max(v for _, v in trace)
        rows.append([variant, f"{mean:6.2f}", f"{peak:6.1f}", len(trace)])
    blocks.append(format_table(headers, rows, title="cwnd summary"))
    for variant, trace in traces.items():
        blocks.append(ascii_series(trace, label=f"cwnd: {variant}"))
    return "\n\n".join(blocks)
