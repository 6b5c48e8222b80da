"""Table I -- dataset characteristics of the evaluation corpus.

Paper averages over 1000 randomly selected APKs: 6217 CFG nodes, 268
methods, 116 variables, max worklist length 74.
"""

import statistics

from repro.bench.figures import render_table

from benchlib import publish


def test_table1_dataset_characteristics(benchmark, corpus, corpus_rows):
    # Benchmark the frontend characterization path itself.
    benchmark(corpus.stats, 5)

    mean = statistics.mean
    table = render_table(
        "Table I: dataset characteristics (corpus averages)",
        [
            ("no. of CFG Nodes", "6217", f"{mean(r.cfg_nodes for r in corpus_rows):.0f}"),
            ("no. of Methods", "268", f"{mean(r.methods for r in corpus_rows):.0f}"),
            ("no. of Variable", "116", f"{mean(r.variables for r in corpus_rows):.0f}"),
            (
                "max Worklist length",
                "74",
                f"{mean(r.max_worklist for r in corpus_rows):.0f}",
            ),
            ("apps evaluated", "1000", f"{len(corpus_rows)}"),
        ],
    )
    publish("table1_dataset", table)

    nodes = mean(r.cfg_nodes for r in corpus_rows)
    methods = mean(r.methods for r in corpus_rows)
    # Scale-dependent absolute sizes; per-method shape is scale-free.
    assert 15 < nodes / methods < 32  # paper: 6217 / 268 = 23.2
