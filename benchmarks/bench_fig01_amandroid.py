"""Fig. 1 -- Amandroid execution time and its IDFG share.

Paper: over 1000 apps, Amandroid takes up to ~38 minutes per app, and
IDFG construction accounts for 58-96 % of the total -- the observation
that motivates accelerating IDFG construction on GPU.
"""

import statistics

from repro.bench.figures import render_series, render_table
from repro.cpu.amandroid import AmandroidModel

from benchlib import publish


def test_fig01_amandroid_breakdown(benchmark, corpus_rows, sample_workload):
    benchmark(AmandroidModel().analyze, sample_workload)

    totals = sorted((r.ama_total_s for r in corpus_rows), reverse=True)
    fractions = [r.idfg_fraction for r in corpus_rows]
    table = render_table(
        "Fig. 1: Amandroid total vs IDFG construction",
        [
            ("max total time", "~38 min", f"{totals[0] / 60:.1f} min"),
            ("median total time", "(curve)", f"{statistics.median(totals) / 60:.1f} min"),
            (
                "IDFG fraction range",
                "0.58 - 0.96",
                f"{min(fractions):.2f} - {max(fractions):.2f}",
            ),
            (
                "IDFG fraction mean",
                "(dominant)",
                f"{statistics.mean(fractions):.2f}",
            ),
        ],
    )
    series = render_series(
        "total Amandroid time, apps sorted descending", totals, unit="s"
    )
    publish("fig01_amandroid", table + "\n" + series)

    assert min(fractions) > 0.4, "IDFG construction must dominate"
    assert max(fractions) < 0.99
