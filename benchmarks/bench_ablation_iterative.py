"""Ablation -- worklist algorithm vs the conventional iterative solver.

The paper's related-work section argues for the worklist algorithm
over the conventional full-sweep iterative algorithm ("large redundancy
and slow convergence due to the fixed full workload in each
iteration").  This benchmark quantifies that choice on our corpus, per
sweep order (body / RPO / reverse-body).
"""

import statistics

from repro.bench.figures import render_table
from repro.dataflow.iterative import ConventionalIterative
from repro.dataflow.worklist import SequentialWorklist

from benchlib import bench_corpus, publish


def test_worklist_vs_conventional(benchmark, corpus_rows):
    corpus = bench_corpus()
    app = corpus.app(0)
    methods = [
        m
        for m in app.methods
        if not any(c in app.method_table for c in m.callees())
    ][:40]

    def run_worklist():
        total = 0
        for method in methods:
            runner = SequentialWorklist(method)
            runner.run()
            total += runner.visits
        return total

    worklist_visits = benchmark(run_worklist)

    rows = [("worklist algorithm", "(the paper's core)", f"{worklist_visits} visits")]
    ratios = {}
    for order in ConventionalIterative.ORDERS:
        visits = sum(
            ConventionalIterative(m, order=order).run().visits for m in methods
        )
        ratios[order] = visits / worklist_visits
        rows.append(
            (
                f"conventional, {order} sweeps",
                "more redundant",
                f"{visits} visits ({ratios[order]:.2f}x worklist)",
            )
        )
    publish(
        "ablation_iterative",
        render_table("Worklist vs conventional iterative", rows),
    )

    # The worst sweep order must show clear redundancy; RPO narrows the
    # gap (the classic result) but the worklist never does *more* work
    # than the most naive order.
    assert max(ratios.values()) > 1.1
    assert ratios["reverse-body"] >= ratios["rpo"]
