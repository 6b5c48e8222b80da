"""Ablation -- every optimization alone against plain.

The paper only evaluates the cumulative stack (MAT, then +GRP, then
+MER); DESIGN.md calls out the single-optimization ablation as the
natural extension.  It confirms MAT is the load-bearing optimization:
GRP and MER without MAT are dwarfed by the allocation stalls they do
not address.
"""

import statistics

from repro.bench.figures import render_table
from repro.core.config import GDroidConfig
from repro.core.engine import GDroid

from benchlib import bench_corpus, publish

#: Single-opt variants (plain baseline priced alongside).
VARIANTS = {
    "MAT only": GDroidConfig(use_mat=True),
    "GRP only": GDroidConfig(use_grp=True),
    "MER only": GDroidConfig(use_mer=True),
}


def test_ablation_single_optimizations(benchmark, corpus_rows, sample_workload):
    benchmark(GDroid(GDroidConfig(use_grp=True)).price, sample_workload)

    # Reuse the cached functional workloads through the harness rows
    # for plain; price single-opt variants on a corpus subsample.
    from repro.core.engine import AppWorkload

    corpus = bench_corpus()
    sample = min(len(corpus_rows), 12)
    speedups = {name: [] for name in VARIANTS}
    for index in range(sample):
        workload = AppWorkload.build(corpus.app(index))
        plain = GDroid(GDroidConfig.plain()).price(workload).total_cycles
        for name, config in VARIANTS.items():
            priced = GDroid(config).price(workload).total_cycles
            speedups[name].append(plain / priced)

    rows = [
        (
            f"{name} vs plain (avg)",
            "(not reported)",
            f"{statistics.mean(values):.2f}x",
        )
        for name, values in speedups.items()
    ]
    table = render_table("Ablation: single optimizations vs plain", rows)
    publish("ablation_single_opts", table)

    mat = statistics.mean(speedups["MAT only"])
    grp = statistics.mean(speedups["GRP only"])
    mer = statistics.mean(speedups["MER only"])
    assert mat > 5 * max(grp, mer), "MAT must be the dominant optimization"
    assert grp > 0.5 and mer > 0.5
