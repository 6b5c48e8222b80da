"""Fig. 8 -- GDroid (all optimizations) vs the plain implementation.

Paper: applying MAT + GRP + MER achieves a 128x peak and 71.3x average
speedup over the plain GPU implementation.
"""

import statistics

from repro.bench.figures import render_series, render_table
from repro.core.config import GDroidConfig
from repro.core.engine import GDroid

from benchlib import publish


def test_fig08_gdroid_vs_plain(benchmark, corpus_rows, sample_workload):
    benchmark(GDroid(GDroidConfig.all_optimizations()).price, sample_workload)

    speedups = [r.gdroid_speedup for r in corpus_rows]
    table = render_table(
        "Fig. 8: GDroid (MAT+GRP+MER) speedup over plain GPU",
        [
            ("average speedup", "71.3x", f"{statistics.mean(speedups):.1f}x"),
            ("peak speedup", "128x", f"{max(speedups):.1f}x"),
            ("minimum speedup", "(>1)", f"{min(speedups):.1f}x"),
        ],
    )
    series = render_series("GDroid-vs-plain speedup, sorted", speedups)
    publish("fig08_gdroid_overview", table + "\n" + series)

    assert statistics.mean(speedups) > 20, "combined optimizations must win big"
    assert max(speedups) > 60
    assert min(speedups) > 1.0
