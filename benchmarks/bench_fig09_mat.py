"""Fig. 9 -- the matrix-based data structure (MAT) vs plain.

Paper: MAT alone achieves 7.6x minimum, 26.7x average, 92.4x maximum
speedup over the plain implementation; 59.4 % of apps fall in the
20-40x band.  The win comes from eliminating dynamic device-memory
allocation, bottleneck #1.
"""

import statistics

from repro.bench.figures import render_series, render_table
from repro.bench.stats import percent_between
from repro.core.config import GDroidConfig
from repro.core.engine import GDroid

from benchlib import publish


def test_fig09_mat_speedup(benchmark, corpus_rows, sample_workload):
    benchmark(GDroid(GDroidConfig.mat_only()).price, sample_workload)

    speedups = [r.mat_speedup for r in corpus_rows]
    table = render_table(
        "Fig. 9: MAT speedup over plain GPU",
        [
            ("average speedup", "26.7x", f"{statistics.mean(speedups):.1f}x"),
            ("minimum speedup", "7.6x", f"{min(speedups):.1f}x"),
            ("maximum speedup", "92.4x", f"{max(speedups):.1f}x"),
            (
                "% apps in 20-40x",
                "59.4%",
                f"{percent_between(speedups, 20, 40):.1f}%",
            ),
        ],
    )
    series = render_series("MAT-vs-plain speedup, sorted", speedups)
    publish("fig09_mat", table + "\n" + series)

    assert 15 < statistics.mean(speedups) < 45
    assert min(speedups) > 3
