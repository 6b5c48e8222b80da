"""Extension -- process-pool serving throughput scaling.

The vetting service dispatches jobs to real worker processes (PR 8);
this benchmark sweeps the worker-process count over one corpus slice
and reports wall-clock jobs/s per count.  Throughput is machine-bound
(core count, spawn overhead), so the sweep is informational -- the
assertions only pin the durability contract: every sweep point must
finish all jobs with zero lost or duplicated work and bit-identical
result rows across worker counts.

Environment knobs:

* ``REPRO_BENCH_SERVE_APPS``  -- jobs per sweep point (default 24).
* ``REPRO_BENCH_SERVE_SCALE`` -- generator scale (default 0.05).
"""

import os

from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile
from repro.bench.figures import render_table
from repro.serve import ServeConfig, run_soak
from repro.serve.jobs import JobState

from benchlib import publish

WORKER_COUNTS = (1, 2, 4)


def _serve_corpus() -> AppCorpus:
    size = int(os.environ.get("REPRO_BENCH_SERVE_APPS", "24"))
    scale = float(os.environ.get("REPRO_BENCH_SERVE_SCALE", "0.05"))
    return AppCorpus(
        size=size, base_seed=818000, profile=GeneratorProfile(scale=scale)
    )


def test_serve_pool_throughput_scaling(tmp_path):
    corpus = _serve_corpus()
    rows = []
    row_sets = []
    base_rate = None
    for count in WORKER_COUNTS:
        report = run_soak(
            corpus,
            config=ServeConfig(
                workers=count,
                vet=False,
                pool="process",
                state_dir=str(tmp_path / f"state-w{count}"),
            ),
        )
        assert report.ok, f"lost/duplicated jobs at {count} workers"
        done = [job for job in report.jobs if job.state == JobState.DONE]
        assert len(done) == corpus.size
        row_sets.append({job.job_id: job.row for job in done})
        rate = len(done) / report.wall_s if report.wall_s else 0.0
        base_rate = base_rate or rate
        rows.append(
            (
                f"{count} worker process(es)",
                "jobs/s (wall)",
                f"{rate:,.2f}  ({rate / base_rate:.2f}x vs 1 worker)",
            )
        )
    # The pool is a transparent acceleration: every worker count must
    # produce the same result rows for the same jobs.
    assert all(current == row_sets[0] for current in row_sets[1:])
    publish(
        "serve_pool_throughput",
        render_table("Process-pool serving throughput", rows)
        + f"\n(jobs per sweep point: {corpus.size})",
    )
