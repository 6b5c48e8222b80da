"""Fig. 11 -- memory-access-pattern node grouping (GRP) over MAT.

Paper: GRP adds only a slight improvement on top of MAT -- below 1.5x
for 76.3 % of apps and an outright degradation for 15.5 % -- because
87.6 % of worklists fit into a single warp, where sorting cannot reduce
divergence but still costs its overhead.
"""

import statistics

from repro.bench.figures import render_series, render_table
from repro.bench.stats import percent_below
from repro.core.config import GDroidConfig
from repro.core.engine import GDroid

from benchlib import publish


def test_fig11_grp_speedup(benchmark, corpus_rows, sample_workload):
    benchmark(GDroid(GDroidConfig.mat_grp()).price, sample_workload)

    speedups = [r.grp_speedup for r in corpus_rows]
    table = render_table(
        "Fig. 11: GRP speedup over MAT-only (baseline = MAT)",
        [
            ("average speedup", "(slight)", f"{statistics.mean(speedups):.2f}x"),
            ("% apps below 1.5x", "76.3%", f"{percent_below(speedups, 1.5):.1f}%"),
            ("% apps degraded", "15.5%", f"{percent_below(speedups, 1.0):.1f}%"),
            ("maximum speedup", "(small)", f"{max(speedups):.2f}x"),
        ],
    )
    series = render_series("GRP-over-MAT speedup, sorted", speedups)
    publish("fig11_grp", table + "\n" + series)

    mean = statistics.mean(speedups)
    assert 0.9 < mean < 1.8, "GRP's benefit must be slight"
    assert percent_below(speedups, 1.5) > 50.0
