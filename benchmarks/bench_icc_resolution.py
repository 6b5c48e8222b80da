"""ICC target-resolution quality gate over the ground-truth sweep.

The resolver's promise is *subset-sound precision*: every resolved
receiver set is a subset of the legacy kind-wide over-approximation,
``constant``-bound sends classify ``exact``, dynamic bindings stay
``over-approx``, and exactly-resolved in-app edges stitch the taint
into the receiving component (linked leaks).  This benchmark measures
that promise over the deterministic scenario sweep
:func:`tools.bench_baseline.collect_icc_metrics` records into
``BENCH_baseline.json``:

* receiver-set shrinkage must be strictly positive (resolution prunes
  real receivers, it is not a no-op);
* every ``linked-leak`` scenario app must surface at least one
  stitched linked flow;
* the resolved receiver set of every send is a subset of the
  ``--no-resolve-icc`` set (checked send-by-send, not in aggregate);
* the recorded informational baseline matches the recomputed values
  (the sweep is a pure function of its seeds, so any drift is a real
  behavior change -- reported with the baseline comparator's tolerance
  discipline, though informational metrics never gate CI).
"""

import json
import sys
import time
from pathlib import Path

from repro.apk.generator import (
    ICC_SCENARIOS,
    generate_app,
    icc_scenario_profile,
)
from repro.bench.figures import render_table
from repro.vetting.report import vet_app

from benchlib import publish

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from bench_baseline import (  # noqa: E402
    DEFAULT_BASELINE,
    ICC_BASE_SEED,
    ICC_METRIC_NAMES,
    ICC_SCALE,
    ICC_SEEDS_PER_SCENARIO,
    collect_icc_metrics,
)

#: Relative drift allowed when checking recorded informational values
#: (mirrors the comparator's default gating tolerance).
TOLERANCE = 0.02


def _sweep_apps():
    """(scenario, app) pairs of the recorded sweep corpus."""
    pairs = []
    for kind_index, scenario in enumerate(ICC_SCENARIOS):
        profile = icc_scenario_profile(scenario, scale=ICC_SCALE)
        for offset in range(ICC_SEEDS_PER_SCENARIO):
            seed = (
                ICC_BASE_SEED
                + kind_index * ICC_SEEDS_PER_SCENARIO
                + offset
            )
            pairs.append((scenario, generate_app(seed, profile)))
    return pairs


def test_icc_resolution_gate(benchmark):
    # The benchmarked operation: resolve + stitch one linked-leak app.
    linked_profile = icc_scenario_profile("linked-leak", scale=ICC_SCALE)
    linked_app = generate_app(ICC_BASE_SEED, linked_profile)
    benchmark(vet_app, linked_app)

    started = time.perf_counter()
    per_scenario = {s: {"sends": 0, "resolved": 0, "linked": 0}
                    for s in ICC_SCENARIOS}
    for scenario, app in _sweep_apps():
        report = vet_app(app)
        legacy = vet_app(app, resolve_icc=False)
        over = {
            (flow.method, flow.send_label): flow.candidate_receivers
            for flow in legacy.icc_flows
        }
        assert len(report.icc_flows) == len(legacy.icc_flows)
        counts = per_scenario[scenario]
        for flow in report.icc_flows:
            counts["sends"] += 1
            key = (flow.method, flow.send_label)
            # Subset-soundness, send by send.
            assert set(flow.candidate_receivers) <= set(over[key]), flow
            if flow.resolution != "over-approx":
                counts["resolved"] += 1
            if scenario == "dynamic-target":
                assert flow.resolution == "over-approx", flow
                assert flow.candidate_receivers == over[key], flow
            else:
                assert flow.resolution == "exact", flow
        counts["linked"] += len(report.linked_flows)
        if scenario == "linked-leak":
            assert report.linked_flows, f"no stitched leak in {app.package}"
        else:
            assert not report.linked_flows, (scenario, app.package)
    elapsed = time.perf_counter() - started

    metrics = collect_icc_metrics()
    assert metrics["icc_receiver_shrinkage"] > 0.0, metrics
    assert metrics["icc_resolved_fraction"] > 0.0, metrics
    assert metrics["icc_linked_flows"] >= ICC_SEEDS_PER_SCENARIO, metrics

    rows = [
        (
            scenario,
            "resolved" if scenario != "dynamic-target" else "over-approx",
            f"{c['resolved']}/{c['sends']} resolved, "
            f"{c['linked']} linked",
        )
        for scenario, c in per_scenario.items()
    ]
    rows.append(
        (
            "sweep totals",
            "shrinkage > 0",
            f"shrinkage {metrics['icc_receiver_shrinkage']:.0%}, "
            f"resolved {metrics['icc_resolved_fraction']:.0%}, "
            f"{metrics['icc_linked_flows']} linked ({elapsed:.2f}s)",
        )
    )
    publish(
        "icc_resolution",
        render_table("ICC target resolution (ground-truth sweep)", rows),
    )

    # Drift check against the recorded informational baseline: never a
    # CI gate by itself, but a loud signal that precision changed.
    baseline_path = Path(__file__).resolve().parent.parent / DEFAULT_BASELINE
    if baseline_path.exists():
        recorded = json.loads(baseline_path.read_text()).get(
            "informational", {}
        )
        for name in ICC_METRIC_NAMES:
            if name not in recorded:
                continue
            base = float(recorded[name])
            now = float(metrics[name])
            drift = abs(now - base) / base if base else abs(now)
            assert drift <= TOLERANCE, (
                f"{name} drifted {drift:.1%} from the recorded baseline "
                f"({base:g} -> {now:g}); re-record with "
                "tools/bench_baseline.py record"
            )
