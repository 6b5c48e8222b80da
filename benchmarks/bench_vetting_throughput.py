"""Extension -- end-to-end vetting throughput (the paper's motivation).

The introduction motivates GDroid with vetting scale: ~7K new apps per
day against tools that need minutes-to-hours per app.  This benchmark
runs the complete pipeline (IDFG via GDroid, then the taint plugin)
and reports modeled screening throughput for each platform.
"""

import statistics

from repro.bench.figures import render_table
from repro.vetting.report import vet_workload

from benchlib import publish

SECONDS_PER_DAY = 86400.0


def test_vetting_throughput(benchmark, corpus_rows, corpus, sample_workload):
    benchmark(vet_workload, corpus.app(0), sample_workload)

    mean = statistics.mean
    rows = []
    for label, seconds in (
        ("Amandroid (Scala)", mean(r.ama_total_s for r in corpus_rows)),
        ("10-core CPU worklist", mean(r.cpu_s for r in corpus_rows)),
        ("plain GPU", mean(r.plain_s for r in corpus_rows)),
        ("GDroid (MAT+GRP+MER)", mean(r.full_s for r in corpus_rows)),
    ):
        rows.append(
            (
                f"{label}: apps/day/worker",
                "7K apps arrive daily",
                f"{SECONDS_PER_DAY / seconds:,.0f}",
            )
        )
    leaky = sum(1 for r in corpus_rows if r.category)  # corpus size
    publish(
        "vetting_throughput",
        render_table("Modeled vetting throughput (IDFG stage)", rows)
        + f"\n(apps evaluated: {leaky})",
    )

    gdroid_rate = SECONDS_PER_DAY / mean(r.full_s for r in corpus_rows)
    amandroid_rate = SECONDS_PER_DAY / mean(r.ama_total_s for r in corpus_rows)
    assert gdroid_rate > 7000, "GDroid must keep up with the daily ingest"
    assert amandroid_rate < 7000, "the motivation: Amandroid cannot"
