"""Ablation -- sensitivity of MAT's win to the allocation-stall cost.

DESIGN.md names the device-heap reallocation stall as bottleneck #1 and
the mechanism behind MAT's 26.7x; this sweep varies the modeled cost of
one reallocation and shows MAT's speedup tracking it, while the other
optimizations stay flat -- evidence the model attributes the win to the
mechanism the paper claims, not to an unrelated constant.
"""

import statistics

from repro.bench.figures import render_table
from repro.core.config import GDroidConfig
from repro.core.engine import GDroid
from repro.gpu.spec import CostTable, DEFAULT_COSTS

from benchlib import publish

SWEEP = (0.0, 0.25, 1.0, 4.0)  # multipliers on dynamic_alloc_cycles


def test_alloc_cost_sensitivity(benchmark, sample_workload):
    benchmark(
        GDroid(GDroidConfig.plain()).price, sample_workload
    )

    rows = []
    mat_speedups = {}
    for multiplier in SWEEP:
        costs = DEFAULT_COSTS.scaled(
            dynamic_alloc_cycles=DEFAULT_COSTS.dynamic_alloc_cycles * multiplier
        )
        plain = GDroid(GDroidConfig.plain(costs=costs)).price(sample_workload)
        mat = GDroid(GDroidConfig.mat_only(costs=costs)).price(sample_workload)
        grp_gain = (
            mat.total_cycles
            / GDroid(GDroidConfig.mat_grp(costs=costs))
            .price(sample_workload)
            .total_cycles
        )
        mat_speedups[multiplier] = plain.total_cycles / mat.total_cycles
        rows.append(
            (
                f"alloc cost x{multiplier:g}",
                "MAT tracks it; GRP flat",
                f"MAT {mat_speedups[multiplier]:6.1f}x   GRP {grp_gain:5.2f}x",
            )
        )
    publish(
        "ablation_alloc_cost",
        render_table("Allocation-stall cost sensitivity", rows),
    )

    # MAT's advantage must grow monotonically with the allocation cost
    # and collapse toward its non-allocation floor when it is free.
    ordered = [mat_speedups[m] for m in SWEEP]
    assert ordered == sorted(ordered)
    assert mat_speedups[0.0] < 0.6 * mat_speedups[1.0]
    assert mat_speedups[4.0] > 1.5 * mat_speedups[1.0]
