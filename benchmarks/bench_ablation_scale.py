"""Ablation -- scale invariance of the relative results.

The benchmark corpus can be shrunk with REPRO_BENCH_SCALE for wall-
clock reasons; this sweep evaluates the same seeds at three generator
scales and shows the headline *ratios* (who wins, roughly by how much)
are stable, which is what licenses running the suite on scaled-down
corpora.
"""

import statistics

from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile
from repro.bench.figures import render_table
from repro.bench.harness import evaluate_app

from benchlib import publish

SCALES = (0.25, 0.5, 1.0)
APPS_PER_SCALE = 6


def test_relative_results_scale_invariant(benchmark, corpus):
    benchmark(evaluate_app, corpus.app(0))

    rows = []
    means = {}
    for scale in SCALES:
        scaled = AppCorpus(
            size=APPS_PER_SCALE, profile=GeneratorProfile(scale=scale)
        )
        evaluations = [evaluate_app(scaled.app(i)) for i in range(APPS_PER_SCALE)]
        mat = statistics.mean(e.mat_speedup for e in evaluations)
        full = statistics.mean(e.gdroid_speedup for e in evaluations)
        ratio = statistics.mean(e.memory_ratio for e in evaluations)
        means[scale] = (mat, full, ratio)
        rows.append(
            (
                f"scale {scale:g} (avg nodes "
                f"{statistics.mean(e.cfg_nodes for e in evaluations):.0f})",
                "stable ratios",
                f"MAT {mat:5.1f}x  GDroid {full:5.1f}x  mem {ratio:.2f}",
            )
        )
    publish("ablation_scale", render_table("Scale invariance", rows))

    mats = [means[s][0] for s in SCALES]
    fulls = [means[s][1] for s in SCALES]
    # Ratios drift with size (bigger apps churn more) but stay within
    # a factor of ~2.5 across a 4x size range.
    assert max(mats) / min(mats) < 2.5
    assert max(fulls) / min(fulls) < 3.0
