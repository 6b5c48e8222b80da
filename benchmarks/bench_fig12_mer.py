"""Fig. 12 -- worklist merging (MER) over MAT+GRP.

Paper: MER achieves up to 4.76x and on average 1.94x additional
speedup, with 67.4 % of apps in the 1.5-3x band -- it removes the
redundant duplicate node analyses and postpones imbalanced tail warps.
"""

import statistics

from repro.bench.figures import render_series, render_table
from repro.bench.stats import percent_between
from repro.core.config import GDroidConfig
from repro.core.engine import GDroid

from benchlib import publish


def test_fig12_mer_speedup(benchmark, corpus_rows, sample_workload):
    benchmark(GDroid(GDroidConfig.all_optimizations()).price, sample_workload)

    speedups = [r.mer_speedup for r in corpus_rows]
    table = render_table(
        "Fig. 12: MER speedup over MAT+GRP (baseline = MAT+GRP)",
        [
            ("average speedup", "1.94x", f"{statistics.mean(speedups):.2f}x"),
            ("maximum speedup", "4.76x", f"{max(speedups):.2f}x"),
            (
                "% apps in 1.5-3x",
                "67.4%",
                f"{percent_between(speedups, 1.5, 3.0):.1f}%",
            ),
        ],
    )
    series = render_series("MER-over-MAT+GRP speedup, sorted", speedups)
    publish("fig12_mer", table + "\n" + series)

    assert 1.3 < statistics.mean(speedups) < 2.8
    assert max(speedups) > 2.5
