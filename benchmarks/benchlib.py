"""Helpers shared by the ``bench_*.py`` modules.

Kept out of ``conftest.py`` so the modules import them by a unique
name: with ``tests``, ``benchmarks`` and ``perfbench/tests`` collected
in one run, ``conftest`` resolves to whichever directory's conftest
was imported first.

Environment knobs:

* ``REPRO_BENCH_APPS``  -- corpus slice (default 60; paper used 1000).
* ``REPRO_BENCH_SCALE`` -- generator scale (default 1.0).

Each benchmark writes its paper-vs-measured table to
``benchmarks/results/<name>.txt`` so results survive pytest's output
capture.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile

RESULTS_DIR = Path(__file__).parent / "results"

#: Default corpus slice for a benchmark session.
DEFAULT_APPS = 60


def bench_corpus() -> AppCorpus:
    size = int(os.environ.get("REPRO_BENCH_APPS", DEFAULT_APPS))
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    return AppCorpus(size=size, profile=GeneratorProfile(scale=scale))


def publish(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
