"""Extension -- demand-driven targeted vetting vs the full IDFG.

BackDroid's observation, transplanted onto GDroid: a vetting query
usually names a handful of sinks, yet the full pipeline pays for the
whole-app IDFG anyway.  The targeted path pre-scans the bytecode for
the requested sinks, backward-slices the ICFG from the anchors it
finds, and runs the unchanged worklist on the slice alone -- most apps
never call the targeted sink and are served clean from the pre-scan,
for free.

This benchmark quantifies that on the seeded corpus: modeled time,
worklist iterations, and host wall-clock of targeted-vs-full on the
largest Table-I size band, for a single-sink query.  The acceptance
floor is a >=5x modeled speedup on that band.
"""

import statistics
import time

from repro.bench.figures import render_table
from repro.bench.harness import AppEvaluation
from repro.core.config import GDroidConfig
from repro.core.engine import AppWorkload, GDroid
from repro.serve.sharder import classify
from repro.vetting.targeted import TargetSpec, build_targeted_workload

from benchlib import publish

#: The single-sink query of the headline comparison.
SINK = "SMS"

#: Wall-clock sample cap: timing a full IDFG build is the expensive
#: part of this benchmark, so the host-time column uses a band prefix.
WALL_CLOCK_SAMPLE = 4


def _largest_band(rows):
    """Indices of the corpus apps in the largest populated size band."""
    sized = [
        (index, row)
        for index, row in enumerate(rows)
        if isinstance(row, AppEvaluation)
    ]
    for band in ("large", "medium", "small"):
        members = [i for i, r in sized if classify(r.cfg_nodes) == band]
        if len(members) >= 4:
            return band, members
    # Degenerate corpus (tiny CI slices): largest third by size.
    ordered = sorted(sized, key=lambda pair: -pair[1].cfg_nodes)
    cut = max(1, len(ordered) // 3)
    return "top-third", [i for i, _ in ordered[:cut]]


def _targeted_modeled_s(app, spec, config):
    """Modeled single-app time of the demand-driven path (0 on skip)."""
    targeted = build_targeted_workload(app, spec, record_mer=False)
    if targeted.workload is None:
        return 0.0, targeted.stats, None
    priced = GDroid(config).price(targeted.workload)
    return priced.modeled_time_s, targeted.stats, targeted.workload


def test_targeted_vs_full(benchmark, corpus, corpus_rows):
    spec = TargetSpec.parse(SINK)
    config = GDroidConfig.all_optimizations()
    band, members = _largest_band(corpus_rows)

    # The benchmarked operation: pre-scan + slice + sliced analysis of
    # one band member (full builds are timed separately below).
    benchmark(build_targeted_workload, corpus.app(members[0]), spec)

    full_s = targeted_s = 0.0
    full_iters = targeted_iters = 0
    anchored = 0
    fractions = []
    for index in members:
        row = corpus_rows[index]
        modeled, stats, workload = _targeted_modeled_s(
            corpus.app(index), spec, config
        )
        full_s += row.full_s
        targeted_s += modeled
        full_iters += row.iterations_sync
        if workload is not None:
            anchored += 1
            targeted_iters += workload.profile.iterations_sync
            fractions.append(stats.slice_fraction)

    # Host wall-clock on a band prefix: the pre-scan skip path must be
    # cheap in real seconds too, not only in modeled ones.
    wall_full = wall_targeted = 0.0
    for index in members[:WALL_CLOCK_SAMPLE]:
        app = corpus.app(index)
        started = time.perf_counter()
        AppWorkload.build(app, record_mer=False)
        wall_full += time.perf_counter() - started
        started = time.perf_counter()
        build_targeted_workload(app, spec, record_mer=False)
        wall_targeted += time.perf_counter() - started

    modeled_speedup = full_s / targeted_s if targeted_s else float("inf")
    wall_speedup = wall_full / wall_targeted if wall_targeted else 0.0
    mean_fraction = statistics.mean(fractions) if fractions else 0.0

    def ratio(value):
        # Every band member skipped -> nothing was analyzed at all.
        return "free (all skipped)" if value == float("inf") else f"{value:.1f}x"

    publish(
        "targeted_vetting",
        render_table(
            f"Targeted ({SINK}) vs full IDFG, band '{band}' "
            f"({len(members)} apps)",
            [
                ("modeled speedup (band total)", ">=5x",
                 ratio(modeled_speedup)),
                ("worklist iterations full/targeted", "--",
                 f"{full_iters}/{targeted_iters}"),
                ("apps skipped by pre-scan", "most",
                 f"{len(members) - anchored}/{len(members)}"),
                ("mean slice fraction (anchored)", "<1.0",
                 f"{mean_fraction:.2f}"),
                (f"wall-clock speedup ({min(len(members), WALL_CLOCK_SAMPLE)}"
                 "-app sample)", "--", f"{wall_speedup:.1f}x"),
            ],
        ),
    )

    # The acceptance floor: a single-sink query on the largest band is
    # at least 5x cheaper than paying for the full IDFG everywhere.
    assert modeled_speedup >= 5.0, (
        f"targeted vetting only {modeled_speedup:.2f}x on band {band}"
    )
    assert targeted_iters <= full_iters
