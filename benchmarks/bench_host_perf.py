"""Host-side performance layer: packed/parallel harness vs the seed path.

Runs a 24-app corpus slice through the full evaluation harness three
ways and records wall-clock and process peak RSS:

* ``legacy-serial``  -- the seed's composition, patched in for this
  leg: the block runner's per-element set dynamics and the per-visit
  lane replay, which reads the same columnar traces.
* ``packed-serial``  -- masked dynamics with the per-round transfer
  memo and one vectorized pricing pass per configuration (the only
  production path).
* ``packed-jobs4``   -- the packed path fanned out over 4 forked
  workers (on a single-core host this mainly demonstrates determinism,
  not speedup).

All three legs must produce byte-identical :class:`AppEvaluation`
rows, and the packed-serial leg must be at least 3x faster than the
seed path.  Results go to ``benchmarks/results/BENCH_host_perf.json``.
"""

import json
import os
import resource
import time

import pytest

import repro.bench.harness as harness
from repro.apk.corpus import AppCorpus
from repro.bench.figures import render_table
from repro.core import costing
from repro.core.blockexec import BlockRunner

from benchlib import RESULTS_DIR, publish

#: Slice size; override with REPRO_HOST_PERF_BENCH_APPS.
BENCH_APPS = int(os.environ.get("REPRO_HOST_PERF_BENCH_APPS", "24"))
#: Acceptance floor for packed-serial over legacy-serial.
MIN_SPEEDUP = 3.0


def _peak_rss_bytes() -> int:
    """Process high-water RSS including reaped children (bytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) * 1024


def _set_dynamics(runner, states, merging, trace, transfers):
    return runner._run_dynamics_sets(states, merging, trace)


def _run_leg(corpus, jobs: int, seed_path: bool = False):
    """One cold harness sweep; returns (rows, wall_s, peak_rss)."""
    harness._CACHE.clear()
    with pytest.MonkeyPatch.context() as patch:
        if seed_path:
            patch.setattr(BlockRunner, "_run_dynamics", _set_dynamics)
            patch.setattr(costing, "_vectorized_exact", lambda config: False)
        started = time.perf_counter()
        rows = harness.evaluate_corpus(corpus, jobs=jobs, no_cache=True)
        wall = time.perf_counter() - started
    return rows, wall, _peak_rss_bytes()


def test_host_perf_speedup():
    corpus = AppCorpus(size=BENCH_APPS)

    legacy_rows, legacy_s, legacy_rss = _run_leg(corpus, jobs=1, seed_path=True)
    packed_rows, packed_s, packed_rss = _run_leg(corpus, jobs=1)
    jobs_rows, jobs_s, jobs_rss = _run_leg(corpus, jobs=4)

    assert packed_rows == legacy_rows, "packed path must be bit-exact"
    assert jobs_rows == legacy_rows, "parallel path must be bit-exact"
    speedup = legacy_s / packed_s

    report = {
        "apps": BENCH_APPS,
        "legs": {
            "legacy-serial": {"wall_s": legacy_s, "peak_rss_bytes": legacy_rss},
            "packed-serial": {"wall_s": packed_s, "peak_rss_bytes": packed_rss},
            "packed-jobs4": {"wall_s": jobs_s, "peak_rss_bytes": jobs_rss},
        },
        "speedup_packed_vs_legacy": speedup,
        "speedup_jobs4_vs_legacy": legacy_s / jobs_s,
        "identical_rows": True,
        "note": "peak RSS is a per-process high-water mark sampled at "
        "leg end; later legs are floored at earlier peaks",
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_host_perf.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )

    table = render_table(
        f"Host performance layer ({BENCH_APPS} apps, cold harness)",
        [
            ("legacy serial", "baseline", f"{legacy_s:.2f}s"),
            ("packed serial", f">= {MIN_SPEEDUP:.0f}x", f"{packed_s:.2f}s ({speedup:.2f}x)"),
            ("packed jobs=4", "bit-exact", f"{jobs_s:.2f}s"),
        ],
    )
    publish("host_perf", table)

    assert speedup >= MIN_SPEEDUP, (
        f"packed path {speedup:.2f}x, need >= {MIN_SPEEDUP}x"
    )
