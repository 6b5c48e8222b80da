"""Fig. 10 -- memory footprint: MAT bit matrix vs set-based store.

Paper: the matrix store needs 25 % of the set store's memory on
average (a 75 % reduction) and at most 34 % -- repetitive data-facts
across nodes are stored once as matrix cells instead of per-node set
entries.
"""

import statistics

from repro.bench.figures import render_series, render_table

from benchlib import publish


def test_fig10_memory_footprint(benchmark, corpus_rows, sample_workload):
    benchmark(sample_workload.matrix_store_footprint)

    ratios = [r.memory_ratio for r in corpus_rows]
    reduction = [1.0 - r for r in ratios]
    table = render_table(
        "Fig. 10: MAT footprint as a fraction of the set store",
        [
            ("average ratio", "0.25", f"{statistics.mean(ratios):.3f}"),
            ("maximum ratio", "0.34", f"{max(ratios):.3f}"),
            ("average reduction", "75%", f"{statistics.mean(reduction) * 100:.1f}%"),
            (
                "set store avg (MB)",
                "(absolute n/a)",
                f"{statistics.mean(r.set_mem for r in corpus_rows) / 1e6:.2f}",
            ),
            (
                "matrix store avg (MB)",
                "(absolute n/a)",
                f"{statistics.mean(r.mat_mem for r in corpus_rows) / 1e6:.2f}",
            ),
        ],
    )
    series = render_series("memory ratio (matrix/set), sorted", ratios, unit="")
    publish("fig10_memory", table + "\n" + series)

    assert statistics.mean(ratios) < 0.40, "MAT must cut memory sharply"
    assert max(ratios) < 0.60
