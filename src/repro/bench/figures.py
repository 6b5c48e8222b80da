"""ASCII rendering of paper-vs-measured tables and sorted series.

A terminal reproduction's "figures": each paper figure becomes a
sorted per-app series (the paper sorts apps by descending metric on
the x-axis) rendered as a sparkline-style histogram plus the summary
rows the paper's prose cites.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.bench.stats import describe, sorted_descending

_BLOCKS = " .:-=+*#%@"


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Down-sampled magnitude strip of a (sorted) series."""
    if not values:
        return ""
    values = list(values)
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    low = min(values)
    high = max(values)
    span = (high - low) or 1.0
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1, int((v - low) / span * (len(_BLOCKS) - 1)))]
        for v in values
    )


def render_table(
    title: str, rows: Iterable[Tuple[str, str, str]]
) -> str:
    """Three-column paper-vs-measured table."""
    lines = [f"== {title} ==", f"{'metric':38s} {'paper':>16s} {'measured':>20s}"]
    for metric, paper, measured in rows:
        lines.append(f"{metric:38s} {paper:>16s} {measured:>20s}")
    return "\n".join(lines)


def render_series(
    title: str, values: Sequence[float], unit: str = "x"
) -> str:
    """Sorted per-app series with summary, like the paper's figures."""
    ordered = sorted_descending(values)
    summary = describe(ordered)
    lines = [
        f"-- {title} ({summary['n']} apps) --",
        f"   max {summary['max']:.2f}{unit}  mean {summary['mean']:.2f}{unit}  "
        f"median {summary['median']:.2f}{unit}  min {summary['min']:.2f}{unit}",
        f"   [{sparkline(ordered)}]",
    ]
    return "\n".join(lines)
