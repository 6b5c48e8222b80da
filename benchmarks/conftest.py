"""Shared benchmark fixtures.

The corpus evaluation (functional analysis + all engines per app) runs
once per session and is shared by every figure/table benchmark through
:func:`repro.bench.harness.evaluate_corpus`'s process cache.  The
corpus slice and the result tables come from :mod:`benchlib`, which
also lists the ``REPRO_BENCH_APPS`` / ``REPRO_BENCH_SCALE`` knobs.
Two more knobs reach the harness directly:

* ``REPRO_BENCH_JOBS``  -- evaluation worker processes (default 1).
* ``REPRO_BENCH_CACHE`` -- set to 0 to disable the on-disk row cache.
"""

from __future__ import annotations

import pytest

from benchlib import bench_corpus
from repro.bench.harness import evaluate_corpus
from repro.core.engine import AppWorkload


@pytest.fixture(scope="session")
def corpus():
    return bench_corpus()


@pytest.fixture(scope="session")
def corpus_rows(corpus):
    """Every app evaluated under every engine (cached per process).

    ``jobs`` defaults from ``REPRO_BENCH_JOBS`` inside the harness;
    rows also persist to / resume from the on-disk evaluation cache.
    """
    return evaluate_corpus(corpus)


@pytest.fixture(scope="session")
def sample_workload(corpus):
    """One representative workload for per-configuration timing."""
    return AppWorkload.build(corpus.app(0))
