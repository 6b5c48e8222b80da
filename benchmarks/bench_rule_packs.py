"""Rule-pack precision/recall gate over the seeded scenario corpora.

Every shipped pack gets a deterministic labeled corpus (true-positive
leaks, sanitizer-suppressed negatives, clean apps; see
:mod:`repro.rules.scenarios`) and must clear the gate:

* recall 100% -- every injected leak fires exactly the expected rule;
* zero false positives -- sanitized and clean scenarios stay silent;
* zero severity mismatches -- findings carry the pack's declared band;
* kill evidence -- every sanitized scenario records at least one
  sanitizer kill, proving the suppressed flow actually existed.

The benchmark also times one full pack evaluation (corpus build + vet
sweep) and publishes a per-pack results table.
"""

import time

from repro.bench.figures import render_table
from repro.rules import (
    evaluate_pack,
    load_pack,
    render_corpus_page,
    scenario_corpus,
    shipped_packs,
)

from benchlib import RESULTS_DIR, publish


def _gate_pack(name):
    pack = load_pack(name)
    scenarios = scenario_corpus(pack)
    started = time.perf_counter()
    report = evaluate_pack(pack, scenarios)
    return pack, report, time.perf_counter() - started


def test_rule_pack_gate(benchmark):
    names = shipped_packs()
    assert len(names) >= 3, f"expected >=3 shipped packs, got {names}"

    # The benchmarked operation: one pack's full gate (scenario corpus
    # generation + sanitizer-aware vetting of every scenario).
    benchmark(_gate_pack, names[0])

    rows = []
    reports = []
    for name in names:
        pack, report, elapsed = _gate_pack(name)
        reports.append(report)
        rows.append(
            (
                f"{pack.name} [{pack.fingerprint()}]",
                "recall 100%, 0 FP",
                f"recall {report.recall:.0%}, {report.false_positives} FP, "
                f"{report.severity_mismatches} sev-mismatch, "
                f"{report.missing_evidence} no-kill ({elapsed:.2f}s)",
            )
        )
    publish(
        "rule_packs",
        render_table("Rule-pack scenario gate (seeded ground truth)", rows),
    )
    (RESULTS_DIR / "rule_packs.html").write_text(render_corpus_page(reports))

    for report in reports:
        assert report.recall == 1.0, report.summary()
        assert report.false_positives == 0, report.summary()
        assert report.severity_mismatches == 0, report.summary()
        assert report.missing_evidence == 0, report.summary()
        assert report.passed, report.summary()
