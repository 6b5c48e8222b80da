"""Fig. 4 -- plain GPU implementation vs the 10-core CPU counterpart.

Paper: the plain port achieves only 1.81x average / 3.39x maximum
speedup over the multithreaded-C CPU implementation; 65.9 % of apps see
less than 2x and 7.3 % are *slower* on GPU -- the motivation for the
three Android-specific optimizations.
"""

import statistics

from repro.bench.figures import render_series, render_table
from repro.bench.stats import percent_below
from repro.core.config import GDroidConfig
from repro.core.engine import GDroid

from benchlib import publish


def test_fig04_plain_gpu_vs_cpu(benchmark, corpus_rows, sample_workload):
    benchmark(GDroid(GDroidConfig.plain()).price, sample_workload)

    speedups = [r.plain_vs_cpu for r in corpus_rows]
    table = render_table(
        "Fig. 4: plain GPU vs 10-core CPU (speedup over CPU)",
        [
            ("average speedup", "1.81x", f"{statistics.mean(speedups):.2f}x"),
            ("maximum speedup", "3.39x", f"{max(speedups):.2f}x"),
            ("% apps slower on GPU", "7.3%", f"{percent_below(speedups, 1.0):.1f}%"),
            ("% apps below 2x", "65.9%", f"{percent_below(speedups, 2.0):.1f}%"),
        ],
    )
    series = render_series("plain-vs-CPU speedup, sorted", speedups)
    publish("fig04_plain_vs_cpu", table + "\n" + series)

    mean = statistics.mean(speedups)
    assert 1.2 < mean < 2.6, "plain GPU should barely beat the CPU"
    assert max(speedups) < 8.0
