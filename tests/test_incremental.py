"""Incremental SBDA tests: summary store, exactness, harness + serve wiring.

The load-bearing property is *bit-identity*: an incremental run seeded
from any store state must produce exactly the reference fixpoint --
equal node-fact sets, flows, and findings.  Everything else (reuse
counters, modeled speedups, serve counters, ledger rendering) is
accounting on top of that invariant.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import obs
from repro.apk.corpus import AppCorpus
from repro.apk.diff import diff_apps
from repro.apk.generator import GeneratorProfile, generate_app, mutate_app
from repro.bench.harness import (
    IncrementalVetRow,
    evaluate_corpus,
    last_run_stats,
)
from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.dataflow.facts import FactSpace
from repro.dataflow.fingerprint import (
    body_fingerprint,
    method_fingerprint,
    summary_fingerprint,
    summary_from_payload,
    summary_to_payload,
)
from repro.dataflow.idfg import MethodFacts
from repro.dataflow.incremental import (
    MethodSummaryStore,
    analyze_app_incremental,
    vet_incremental,
)
from repro.dataflow.summaries import MethodSummary
from repro.dataflow.worklist import analyze_app_reference, compute_summaries
from repro.ir.parser import parse_app
from repro.obs.export import render_ledger, run_ledger
from repro.serve import JobState, ServeConfig, run_soak
from repro.serve.journal import row_from_payload, row_to_payload
from repro.vetting.report import vet_app

#: Small generator profile keeping these tests fast.
PROFILE = GeneratorProfile(scale=0.12)


def _app(seed: int = 7):
    return generate_app(seed, PROFILE)


# -- fingerprints and summary serialisation -----------------------------------


class TestFingerprints:
    def test_method_fingerprint_tracks_body_changes(self):
        app = _app()
        new, touched = mutate_app(app, seed=1, count=1)
        for signature in touched:
            assert method_fingerprint(
                app.method_table[signature]
            ) != method_fingerprint(new.method_table[signature])
        untouched = [
            method
            for method in app.methods
            if str(method.signature) not in touched
        ]
        for method in untouched:
            assert method_fingerprint(method) == method_fingerprint(
                new.method_table[str(method.signature)]
            )

    def test_body_fingerprint_ignores_the_signature_header(self):
        app = _app()
        method = app.methods[0]
        assert body_fingerprint(method) != method_fingerprint(method)

    def test_summary_payload_round_trips_exactly(self):
        app = app_with_environments(_app())
        summaries = compute_summaries(app, SBDALayering(CallGraph(app)))
        assert summaries
        for summary in summaries.values():
            payload = summary_to_payload(summary)
            # JSON-serializable and stable under a dump/load cycle.
            restored = summary_from_payload(
                json.loads(json.dumps(payload))
            )
            assert restored == summary
            assert summary_fingerprint(restored) == summary_fingerprint(
                summary
            )


# -- the summary store ---------------------------------------------------------


def _no_node_facts(member):
    del member["node_facts"]


def _bogus_summary(member):
    member["summary"] = {"bogus": 1}


def _one_row_too_few(member):
    member["node_facts"].pop()


def _one_row_too_many(member):
    member["node_facts"].append("0")


_MEMBER_DAMAGE = (
    _no_node_facts, _bogus_summary, _one_row_too_few, _one_row_too_many
)


class TestMethodSummaryStore:
    def test_cold_then_warm(self, tmp_path):
        store = MethodSummaryStore(root=tmp_path / "s")
        app = _app()
        cold = analyze_app_incremental(app, store)
        assert cold.stats.methods_reused == 0
        assert cold.stats.scc_hits == 0
        assert store.stores == cold.stats.scc_misses
        warm = analyze_app_incremental(app, store)
        assert warm.stats.methods_reused == warm.stats.methods_total
        assert warm.stats.scc_misses == 0
        assert warm.stats.modeled_speedup > 10
        assert warm.idfg.equivalent_to(cold.idfg)

    def test_corrupt_entries_are_purged_not_trusted(self, tmp_path):
        store = MethodSummaryStore(root=tmp_path / "s")
        app = _app()
        analyze_app_incremental(app, store)
        for path in store.root.glob("*.json"):
            path.write_text("{not json")
        rerun = analyze_app_incremental(app, store)
        assert store.purged > 0
        assert rerun.stats.methods_reused == 0
        assert rerun.idfg.equivalent_to(analyze_app_reference(app))

    def test_disabled_store_writes_nothing(self, tmp_path):
        store = MethodSummaryStore(root=tmp_path / "s", enabled=False)
        result = analyze_app_incremental(_app(), store)
        assert result.stats.methods_reused == 0
        assert not (tmp_path / "s").exists()
        assert result.idfg.equivalent_to(analyze_app_reference(_app()))

    @pytest.mark.parametrize(
        "damage", _MEMBER_DAMAGE, ids=[d.__name__ for d in _MEMBER_DAMAGE]
    )
    def test_malformed_member_is_purged_and_recomputed(self, tmp_path, damage):
        """A member that parses but does not decode or does not fit its
        method is a miss, caught before anything is restored."""
        app = generate_app(31, GeneratorProfile(scale=0.3))
        root = tmp_path / "s"
        analyze_app_incremental(app, MethodSummaryStore(root=root))
        for path in sorted(root.glob("*.json")):
            entry = json.loads(path.read_text())
            member = next(
                (m for m in entry["members"].values() if m["node_facts"]), None
            )
            if member is not None:
                break
        damage(member)
        path.write_text(json.dumps(entry))

        store = MethodSummaryStore(root=root)
        result = analyze_app_incremental(app, store)
        assert (store.purged, store.misses) == (1, 1)
        assert result.idfg.equivalent_to(analyze_app_reference(app))

    def test_rows_round_trip_past_the_decimal_digit_limit(self, tmp_path):
        """Rows are hex: one whose top bit is past ~14,300 has more than
        the 4,300 decimal digits CPython converts to or from text."""
        app = parse_app("app p\nmethod a.B.m()V\n  L0: return\nend\n")
        method = app.method("a.B.m()V")
        signature = str(method.signature)
        row = 1 << 14_515 | 1 << 64 | 1
        facts = MethodFacts(
            space=FactSpace(method), node_facts=(row,), exit_facts=row >> 1
        )
        summary = MethodSummary(signature=signature)
        store = MethodSummaryStore(root=tmp_path)
        store.store("key", {signature: facts}, {signature: summary}, visits=3)
        stored = store.load("key", {signature: 1})
        assert stored.visits == 3
        assert stored.members == {signature: (summary, (row,), row >> 1)}


# -- exactness under version bumps ---------------------------------------------


class TestIncrementalExactness:
    def test_bump_recomputes_only_dirty_sccs_bit_identically(self, tmp_path):
        store = MethodSummaryStore(root=tmp_path / "s")
        old = _app()
        new, touched = mutate_app(old, seed=5, count=2)
        assert len(touched) == 2
        analyze_app_incremental(old, store)
        result = analyze_app_incremental(new, store)
        assert result.stats.methods_recomputed >= len(touched)
        assert result.stats.methods_reused > 0
        assert result.idfg.equivalent_to(analyze_app_reference(new))

    def test_vet_incremental_matches_cold_vet(self, tmp_path):
        store = MethodSummaryStore(root=tmp_path / "s")
        old = _app()
        new, _ = mutate_app(old, seed=9, count=1)
        report, stats = vet_incremental(new, old, store)
        cold = vet_app(new)
        assert report.flows == cold.flows
        assert report.icc_flows == cold.icc_flows
        assert report.linked_flows == cold.linked_flows
        assert report.risk_score == cold.risk_score
        assert report.verdict == cold.verdict
        assert stats.methods_reused > 0

    def test_store_state_never_changes_results(self, tmp_path):
        # Property sweep: whatever mix of hits the store serves, the
        # fixpoint equals the reference.  Apps share the store on
        # purpose -- cross-app collisions must be impossible.
        store = MethodSummaryStore(root=tmp_path / "s")
        for seed in (3, 4, 5):
            app = generate_app(seed, PROFILE)
            result = analyze_app_incremental(app, store)
            assert result.idfg.equivalent_to(analyze_app_reference(app))


# -- the version-bump mutator --------------------------------------------------


class TestMutateApp:
    def test_deterministic_and_counted(self):
        app = _app()
        first, touched_a = mutate_app(app, seed=2, count=3)
        second, touched_b = mutate_app(app, seed=2, count=3)
        assert touched_a == touched_b
        assert len(touched_a) == 3
        assert first.package == app.package
        assert [str(m.signature) for m in first.methods] == [
            str(m.signature) for m in second.methods
        ]

    def test_diff_sees_exactly_the_touched_methods(self):
        app = _app()
        new, touched = mutate_app(app, seed=11, count=2)
        diff = diff_apps(app, new)
        assert sorted(diff.modified) == sorted(touched)
        assert not diff.added and not diff.removed
        assert diff.dirty_count == 2


# -- harness integration -------------------------------------------------------


class TestHarnessBaseline:
    def test_evaluate_corpus_with_baseline(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=3, base_seed=710100, profile=PROFILE)
        rows = evaluate_corpus(corpus, baseline=corpus)
        assert len(rows) == 3
        for index, row in enumerate(rows):
            assert isinstance(row, IncrementalVetRow)
            assert row.index == index
            # Resubmission: the baseline run seeded every SCC.
            assert row.methods_reused == row.methods_total
            assert row.modeled_speedup > 10
            cold = vet_app(corpus.app(index))
            assert row.verdict == cold.verdict
            assert row.risk_score == cold.risk_score
            assert row.flow_count == len(cold.flows)
        stats = last_run_stats()
        assert stats is not None
        assert stats.summary_hits > 0
        assert "incremental" in stats.summary()

    def test_run_stats_render_in_the_ledger(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=2, base_seed=710200, profile=PROFILE)
        tracer = obs.Tracer()
        obs.activate(tracer)
        try:
            evaluate_corpus(corpus, baseline=corpus)
        finally:
            obs.deactivate()
        ledger = run_ledger(tracer, run_stats=last_run_stats())
        assert (
            ledger["counters"]["corpus.incremental.summary_hits"] > 0
        )
        text = render_ledger(ledger)
        assert "run stats:" in text
        assert "summary_hits" in text


# -- serve integration ---------------------------------------------------------


class TestServeBaseline:
    def test_soak_with_corpus_baseline_counts_hits(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=4, base_seed=710300, profile=PROFILE)
        report = run_soak(
            corpus, config=ServeConfig(workers=2), baseline="corpus"
        )
        assert report.ok and report.failed == 0
        assert report.counters["serve.incremental.jobs"] == 4
        assert report.counters["serve.incremental.hits"] > 0
        assert report.counters["serve.incremental.reused_methods"] > 0
        for job in report.jobs:
            assert job.state == JobState.DONE
            assert job.baseline == "corpus"
            assert isinstance(job.row, IncrementalVetRow)
            assert job.verdict is not None
            # Modeled latency is undefined for an incremental re-vet.
            assert job.modeled_latency_s is None

    def test_soak_with_gdx_baseline_path(self, tmp_path, monkeypatch):
        from repro.apk.loader import save_gdx

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        corpus = AppCorpus(size=2, base_seed=710400, profile=PROFILE)
        baseline_path = tmp_path / "base.gdx"
        save_gdx(corpus.app(0), baseline_path)
        report = run_soak(
            corpus,
            config=ServeConfig(workers=1),
            baseline=str(baseline_path),
        )
        assert report.ok and report.failed == 0
        assert report.counters["serve.incremental.jobs"] == 2

    def test_corrupt_baseline_fails_structurally(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        bad = tmp_path / "bad.gdx"
        bad.write_bytes(b"not a container")
        corpus = AppCorpus(size=2, base_seed=710500, profile=PROFILE)
        report = run_soak(
            corpus, config=ServeConfig(workers=1), baseline=str(bad)
        )
        assert report.ok
        assert report.completed == 0 and report.failed == 2
        for job in report.jobs:
            assert job.state == JobState.FAILED
            assert "baseline" in (job.error or "")

    def test_incremental_row_round_trips_through_the_journal(self):
        row = IncrementalVetRow(
            package="com.a",
            category="games",
            index=0,
            methods_total=10,
            methods_reused=9,
            methods_recomputed=1,
            visits_cold=1000.0,
            visits_incremental=50.0,
            modeled_speedup=20.0,
            verdict="clean",
            risk_score=0,
            flow_count=0,
            finding_count=0,
        )
        payload = json.loads(json.dumps(row_to_payload(row)))
        assert row_from_payload(payload) == row

    def test_pooled_serve_carries_incremental_counters(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=3, base_seed=710600, profile=PROFILE)
        report = run_soak(
            corpus,
            config=ServeConfig(workers=2, pool="process"),
            baseline="corpus",
        )
        assert report.ok and report.failed == 0
        assert report.counters["serve.incremental.jobs"] == 3
        assert report.counters["serve.incremental.hits"] > 0
        for job in report.jobs:
            assert isinstance(job.row, IncrementalVetRow)


# -- the baseline index --------------------------------------------------------


def _bump(seed: int = 21):
    old = _app()
    new, _ = mutate_app(old, seed=seed, count=2)
    return old, new


def _seeded(root, old):
    """Seed a store at ``root`` with ``old``; return its index entry."""
    analyze_app_incremental(old, MethodSummaryStore(root=root))
    (index,) = (root / "apps").glob("*.json")
    return index


def _same_report(report, other):
    for attribute in (
        "flows", "icc_flows", "linked_flows", "risk_score", "verdict",
        "witnesses", "findings",
    ):
        assert getattr(report, attribute) == getattr(other, attribute)


class TestBaselineIndex:
    def test_index_lists_the_pass_keys(self, tmp_path):
        root = tmp_path / "s"
        result = analyze_app_incremental(_app(), MethodSummaryStore(root=root))
        (index,) = (root / "apps").glob("*.json")
        assert json.loads(index.read_text())["keys"] == list(result.keys)

    def test_indexed_baseline_decodes_no_baseline_entry(self, tmp_path):
        old, new = _bump()
        _seeded(tmp_path / "a", old)
        store = MethodSummaryStore(root=tmp_path / "a")
        report, stats = vet_incremental(new, old, store)
        assert not stats.baseline_replayed
        assert store.hits == stats.scc_hits
        assert "baseline replayed: no" in stats.summary()

        # A forced replay: the same store without its index.
        index = _seeded(tmp_path / "b", old)
        index.unlink()
        forced = MethodSummaryStore(root=tmp_path / "b")
        forced_report, forced_stats = vet_incremental(new, old, forced)
        assert forced_stats.baseline_replayed
        assert forced.hits > forced_stats.scc_hits
        assert "baseline replayed: yes" in forced_stats.summary()
        _same_report(report, forced_report)
        assert stats == dataclasses.replace(
            forced_stats, baseline_replayed=False
        )

    @pytest.mark.parametrize("damage", ["missing", "garbage", "deleted"])
    def test_damaged_index_replays(self, tmp_path, damage):
        old, new = _bump()
        # Today's path: analyze the baseline, then the new version.
        reference_store = MethodSummaryStore(root=tmp_path / "ref")
        analyze_app_incremental(old, reference_store)
        reference = analyze_app_incremental(new, reference_store).stats

        index = _seeded(tmp_path / "s", old)
        if damage == "missing":
            index.unlink()
        elif damage == "garbage":
            index.write_text("{not json")
        else:
            key = json.loads(index.read_text())["keys"][0]
            (tmp_path / "s" / f"{key}.json").unlink()
        store = MethodSummaryStore(root=tmp_path / "s")
        report, stats = vet_incremental(new, old, store)
        assert stats.baseline_replayed
        assert stats == dataclasses.replace(
            reference, baseline_replayed=True
        )
        _same_report(report, vet_app(new))

    def test_corrupt_entry_under_intact_index_recomputes(self, tmp_path):
        old, new = _bump()
        index = _seeded(tmp_path / "s", old)
        new_keys = analyze_app_incremental(
            new, MethodSummaryStore(enabled=False)
        ).keys
        shared = [
            key for key in json.loads(index.read_text())["keys"]
            if key in new_keys
        ]
        assert shared
        (tmp_path / "s" / f"{shared[0]}.json").write_text("{not json")
        store = MethodSummaryStore(root=tmp_path / "s")
        report, stats = vet_incremental(new, old, store)
        assert not stats.baseline_replayed
        assert store.purged == 1
        assert stats.scc_misses > 0 and stats.methods_reused > 0
        _same_report(report, vet_app(new))

    def test_disabled_store_never_replays(self, tmp_path, monkeypatch):
        from repro.dataflow import incremental

        calls = []
        original = incremental.analyze_app_incremental

        def counting(app, *args, **kwargs):
            calls.append(app.package)
            return original(app, *args, **kwargs)

        monkeypatch.setattr(incremental, "analyze_app_incremental", counting)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=3, base_seed=710700, profile=PROFILE)
        rows = evaluate_corpus(corpus, no_cache=True, baseline=corpus)
        assert len(calls) == corpus.size
        assert not any(tmp_path.iterdir())
        for index, row in enumerate(rows):
            app = corpus.app(index)
            cold_pass = original(app, MethodSummaryStore(enabled=False))
            cold = vet_app(app)
            assert row == IncrementalVetRow(
                package=app.package,
                category=app.category,
                index=index,
                methods_total=cold_pass.stats.methods_total,
                methods_reused=0,
                methods_recomputed=cold_pass.stats.methods_total,
                visits_cold=cold_pass.stats.visits_cold,
                visits_incremental=cold_pass.stats.visits_incremental,
                modeled_speedup=1.0,
                verdict=cold.verdict,
                risk_score=cold.risk_score,
                flow_count=len(cold.flows),
                finding_count=0,
            )


class TestServeBaselineReplays:
    @pytest.mark.parametrize("pool", ["async", "process"])
    def test_second_soak_replays_nothing(self, tmp_path, monkeypatch, pool):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=3, base_seed=710800, profile=PROFILE)
        config = ServeConfig(workers=2, pool=pool)
        for replays in (3, 0):
            report = run_soak(corpus, config=config, baseline="corpus")
            assert report.ok and report.failed == 0
            counters = report.counters
            assert counters["serve.incremental.baseline_replays"] == replays
            assert counters["serve.incremental.hits"] > 0
