"""Incremental re-analysis gate: version bumps stay cheap and exact.

The incremental pipeline's promise is twofold:

* **bit-identity** -- re-analyzing a bumped app with summaries seeded
  from the previous version yields exactly the reference fixpoint:
  equal node-fact sets (``IDFG.equivalent_to``), equal flows / ICC
  flows / linked flows, equal risk score and rule-pack findings;
* **cheapness** -- a one-method bump re-vets at least ``MIN_SPEEDUP``x
  cheaper than a cold run under the modeled visit cost (executed
  worklist visits + a unit restore cost per reused method).

Both are gated here across several generator seeds (a small property
sweep), not just one lucky app.  The same invariants are enforced on
a 12-app slice in CI by ``tools/incremental_smoke.py``.
"""

import time

from repro.apk.generator import GeneratorProfile, generate_app, mutate_app
from repro.bench.figures import render_table
from repro.dataflow.incremental import (
    MethodSummaryStore,
    analyze_app_incremental,
)
from repro.dataflow.worklist import analyze_app_reference
from repro.vetting.report import vet_app, vet_workload

from benchlib import publish

#: A one-method bump must re-vet at least this much cheaper (modeled).
MIN_SPEEDUP = 10.0

#: Generator seeds of the property sweep (distinct app shapes).
SEEDS = (7, 11, 23, 42)

SCALE = 0.25


class _Workload:
    __slots__ = ("analyzed_app", "idfg")

    def __init__(self, analyzed_app, idfg):
        self.analyzed_app = analyzed_app
        self.idfg = idfg


def _bump_once(seed, store):
    """Cold-analyze one app, bump one method, re-analyze incrementally."""
    old = generate_app(seed, GeneratorProfile(scale=SCALE))
    new, touched = mutate_app(old, seed=seed + 1, count=1)
    assert len(touched) == 1
    # Seed the store from the previous version (the cold run).
    analyze_app_incremental(old, store)
    result = analyze_app_incremental(new, store)
    return new, result


def test_incremental_bump_is_cheap_and_bit_identical(tmp_path, benchmark):
    store = MethodSummaryStore(root=tmp_path / "summaries")

    # The benchmarked operation: one warm incremental re-analysis.
    warm_old = generate_app(SEEDS[0], GeneratorProfile(scale=SCALE))
    analyze_app_incremental(warm_old, store)
    benchmark(analyze_app_incremental, warm_old, store)

    started = time.perf_counter()
    rows = []
    speedups = []
    for seed in SEEDS:
        new, result = _bump_once(seed, store)
        stats = result.stats

        # Exactness: the incremental fixpoint equals the reference one.
        reference = analyze_app_reference(new)
        assert result.idfg.equivalent_to(reference), (
            f"seed {seed}: incremental IDFG diverged from reference: "
            f"{result.idfg.diff(reference)}"
        )
        incremental_report = vet_workload(
            new, _Workload(result.analyzed_app, result.idfg)
        )
        cold_report = vet_app(new)
        assert incremental_report.flows == cold_report.flows
        assert incremental_report.icc_flows == cold_report.icc_flows
        assert incremental_report.linked_flows == cold_report.linked_flows
        assert incremental_report.risk_score == cold_report.risk_score

        # Cheapness: the modeled visit cost collapses.
        assert stats.methods_recomputed < stats.methods_total
        speedup = stats.modeled_speedup
        speedups.append(speedup)
        assert speedup >= MIN_SPEEDUP, (
            f"seed {seed}: one-method bump only {speedup:.1f}x cheaper "
            f"(gate: >= {MIN_SPEEDUP}x): {stats.summary()}"
        )
        rows.append(
            (
                f"seed {seed}: bump speedup (>= {MIN_SPEEDUP:.0f}x)",
                "--",
                f"{speedup:.1f}x "
                f"({stats.methods_reused}/{stats.methods_total} reused)",
            )
        )

    rows.append(
        (
            "bit-identical facts/flows/risk",
            "exact",
            f"exact ({len(SEEDS)} seeds)",
        )
    )
    rows.append(
        (
            "min speedup across sweep",
            f">= {MIN_SPEEDUP:.0f}x",
            f"{min(speedups):.1f}x",
        )
    )
    rows.append(
        ("gate wall time", "--", f"{time.perf_counter() - started:.2f}s")
    )
    publish(
        "incremental_bump",
        render_table("Incremental re-analysis (1-method bump)", rows),
    )
