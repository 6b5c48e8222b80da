"""Ablation -- execution-parameter tuning sweep (paper Section V).

Paper: "Empirically 4-5 thread-blocks/SM achieves optimal GPU
utilization ... we assign multiple methods (usually 3-4) to one block."
The sweep reproduces both empirical optima from the cost model, and
exercises :mod:`repro.core.autotune` (the paper's future-work
auto-tuner).
"""

from repro.bench.figures import render_table
from repro.core.autotune import AutoTuner
from repro.core.config import GDroidConfig

from benchlib import bench_corpus, publish


def test_tuning_sweep(benchmark, corpus_rows):
    corpus = bench_corpus()
    app = corpus.app(1)
    tuner = AutoTuner(
        GDroidConfig.all_optimizations(),
        methods_per_block_range=(1, 2, 4, 8),
        blocks_per_sm_range=(1, 2, 4, 5, 8),
    )
    result = benchmark.pedantic(tuner.tune, args=(app,), rounds=1, iterations=1)

    grid = result.grid()
    rows = [
        (
            f"methods/block={m}, blocks/SM={b}",
            "",
            f"{grid[(m, b)] * 1e3:8.3f} ms",
        )
        for (m, b) in sorted(grid)
    ]
    rows.append(
        (
            "auto-tuned optimum",
            "4-5 blocks/SM, 3-4 methods/block",
            f"methods/block={result.best.methods_per_block}, "
            f"blocks/SM={result.best.blocks_per_sm}",
        )
    )
    publish("ablation_tuning", render_table("Tuning sweep (modeled time)", rows))

    # The paper's empirical shape must be reproduced: grouping a few
    # methods per block wins over one-method blocks, and occupancy past
    # the sweet spot (8 blocks/SM) loses to contention.  (Our modeled
    # apps are critical-block bound, so blocks/SM is flat below the
    # contention knee rather than peaking at 4-5.)
    assert 2 <= result.best.methods_per_block <= 6
    assert result.best.blocks_per_sm <= 5
    single = min(v for (m, b), v in grid.items() if m == 1)
    assert result.best_time_s < single
    crowded = min(v for (m, b), v in grid.items() if b == 8)
    assert result.best_time_s < crowded
