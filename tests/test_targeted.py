"""Demand-driven targeted vetting: pre-scan, slice, equivalence, serve.

The load-bearing property is *anchored-flow equivalence*: a targeted
run restricted to sink set S must report exactly the full-IDFG
oracle's flows whose sink is in S, with bit-identical facts for every
slice member.  The suites here assert that on hand-written apps that
stress each slice rule (callees, relevant callers, global writers) and
on a generated-corpus sweep, plus the skip path, the cache-key
aliasing fix, and the serve/CLI integration.
"""

import json

import pytest

from repro import obs
from repro.apk.corpus import AppCorpus
from repro.apk.dex import pack_app
from repro.apk.loader import save_gdx
from repro.core.engine import AppWorkload
from repro.ir.parser import parse_app
from repro.rules.engine import build_findings
from repro.rules.pack import load_pack
from repro.vetting.sources_sinks import (
    DEFAULT_REGISTRY,
    KIND_ICC_SEND,
    KIND_SINK,
    KIND_SOURCE,
    SINK_CATEGORIES,
    SOURCE_CATEGORIES,
    ApiEntry,
    ApiRegistry,
)
from repro.vetting.taint import TaintAnalysis
from repro.vetting.targeted import (
    TargetSpec,
    TargetSpecError,
    backward_slice,
    build_targeted_workload,
    find_anchors,
    scan_blob,
    scan_gdx,
    slice_estimate,
    taint_relevant_methods,
    vet_targeted,
    vet_targeted_report,
)
from tests.conftest import (
    LEAKY_APP_SOURCE,
    TINY_PROFILE,
    every_method_witnesses,
)

SRC = "android.telephony.TelephonyManager.getDeviceId()Ljava/lang/String;"
SNK = "android.telephony.SmsManager.sendTextMessage(Ljava/lang/String;Ljava/lang/String;)V"
LOG = "android.util.Log.d(Ljava/lang/String;Ljava/lang/String;)I"


def oracle_flows(app, spec):
    """The full-IDFG flow set restricted to the targeted sinks."""
    workload = AppWorkload.build(app)
    flows = TaintAnalysis(workload.analyzed_app, workload.idfg).run()
    return workload, frozenset(f for f in flows if f.sink_api in spec)


def targeted_flows(app, spec):
    """The sliced-run flow set (empty when the pre-scan skips)."""
    targeted = build_targeted_workload(app, spec)
    if targeted.workload is None:
        return targeted, frozenset()
    workload = targeted.workload
    flows = TaintAnalysis(workload.analyzed_app, workload.idfg).run()
    return targeted, frozenset(f for f in flows if f.sink_api in spec)


class TestTargetSpec:
    def test_parse_signature(self):
        spec = TargetSpec.parse(SNK)
        assert spec.sinks == (SNK,)
        assert SNK in spec and len(spec) == 1 and bool(spec)

    def test_parse_category_expands(self):
        spec = TargetSpec.parse("sms")
        assert spec.sinks == (SNK,)

    def test_parse_mixed_dedupes_and_sorts(self):
        spec = TargetSpec.parse(f"SMS, {SNK}, LOG")
        assert spec.sinks == tuple(sorted({SNK, LOG}))

    def test_parse_unknown_token(self):
        with pytest.raises(TargetSpecError, match="BOGUS"):
            TargetSpec.parse("BOGUS")

    def test_parse_empty_is_falsy(self):
        spec = TargetSpec.parse("")
        assert not spec and len(spec) == 0

    def test_from_file(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_text(f"# high-value sinks\nSMS\n{LOG}  # plus the log\n\n")
        assert TargetSpec.from_file(path).sinks == tuple(sorted({SNK, LOG}))

    def test_all_sinks_covers_registry(self):
        spec = TargetSpec.all_sinks()
        assert set(spec.sinks) == set(
            DEFAULT_REGISTRY.signatures(kind=KIND_SINK)
        )

    def test_fingerprint_stable_and_distinct(self):
        a, b = TargetSpec.parse("SMS"), TargetSpec.parse("LOG")
        assert a.fingerprint() == TargetSpec.parse("SMS").fingerprint()
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() != TargetSpec.parse("SMS,LOG").fingerprint()

    def test_describe_uses_categories(self):
        assert TargetSpec.parse(f"SMS,{LOG}").describe() == "LOG,SMS"

    def test_empty_spec_rejected_by_build(self, leaky_app):
        with pytest.raises(TargetSpecError):
            build_targeted_workload(leaky_app, TargetSpec(sinks=()))


class TestRegistry:
    def test_lookup(self):
        entry = DEFAULT_REGISTRY.get(SNK)
        assert entry == ApiEntry(signature=SNK, kind=KIND_SINK, category="SMS")
        assert DEFAULT_REGISTRY.kind_of(SRC) == KIND_SOURCE
        assert DEFAULT_REGISTRY.category_of(SRC) == "UNIQUE_IDENTIFIER"
        assert DEFAULT_REGISTRY.get("nope") is None

    def test_queries(self):
        sinks = DEFAULT_REGISTRY.signatures(kind=KIND_SINK)
        assert SNK in sinks and sinks == tuple(sorted(sinks))
        assert DEFAULT_REGISTRY.signatures(
            kind=KIND_SINK, category="SMS"
        ) == (SNK,)
        assert "SMS" in DEFAULT_REGISTRY.categories(kind=KIND_SINK)
        assert SNK in DEFAULT_REGISTRY and len(DEFAULT_REGISTRY) == len(
            list(DEFAULT_REGISTRY)
        )

    def test_duplicate_signature_rejected(self):
        entry = ApiEntry(signature="a.B.m()V", kind=KIND_SINK, category="X")
        with pytest.raises(ValueError, match="duplicate"):
            ApiRegistry([entry, entry])

    def test_compat_views_match_registry(self):
        assert SINK_CATEGORIES == {
            e.signature: e.category
            for e in DEFAULT_REGISTRY.entries(kind=KIND_SINK)
        }
        assert SOURCE_CATEGORIES == {
            e.signature: e.category
            for e in DEFAULT_REGISTRY.entries(kind=KIND_SOURCE)
        }
        assert all(
            DEFAULT_REGISTRY.kind_of(s) == KIND_ICC_SEND
            for s in DEFAULT_REGISTRY.signatures(kind=KIND_ICC_SEND)
        )


class TestPreScan:
    def test_scan_blob_hit_and_miss(self, leaky_app):
        blob = pack_app(leaky_app)
        assert scan_blob(blob, TargetSpec.parse("SMS")) == (SNK,)
        net = TargetSpec.parse("NETWORK")
        assert scan_blob(blob, net) == ()

    def test_scan_gdx(self, leaky_app, tmp_path):
        path = tmp_path / "leaky.gdx"
        save_gdx(leaky_app, path)
        assert scan_gdx(path, TargetSpec.parse("SMS,NETWORK")) == (SNK,)

    def test_find_anchors(self, leaky_app):
        anchors = find_anchors(leaky_app, TargetSpec.parse("SMS"))
        assert len(anchors) == 1
        anchor = anchors[0]
        assert anchor.method == "com.leaky.Main.leak()V"
        assert anchor.label == "L4" and anchor.sink_api == SNK

    def test_scan_never_misses_an_anchor(self, leaky_app):
        # The raw-bytes pre-filter must be sound w.r.t. the IR scan.
        spec = TargetSpec.all_sinks()
        hits = set(scan_blob(pack_app(leaky_app), spec))
        assert {a.sink_api for a in find_anchors(leaky_app, spec)} <= hits


#: Stresses the relevant-callers rule (R1): taint enters the anchor
#: method as a parameter, so dropping the caller would lose the flow.
CALLER_TAINT_SOURCE = f"""
app com.r1
method a.B.emit(Ljava/lang/String;)V
  param data: Ljava/lang/String;
  L0: call {SNK}(data, data)
  L1: return
end
method a.B.top()V
  local id: Ljava/lang/String;
  L0: call id := {SRC}()
  L1: call a.B.emit(Ljava/lang/String;)V(id)
  L2: return
end
method a.B.bystander()V
  local s: Ljava/lang/String;
  L0: s := "static"
  L1: call {LOG}(s, s)
  L2: return
end
"""

#: Stresses the global-writers rule (R3): taint crosses methods only
#: through ``@@a.G.cache``; the writer shares no call edge with the
#: anchor method.
GLOBAL_CHANNEL_SOURCE = f"""
app com.r3
global a.G.cache: Ljava/lang/String;
method a.B.stash()V
  local id: Ljava/lang/String;
  L0: call id := {SRC}()
  L1: @@a.G.cache := id
  L2: return
end
method a.B.dump()V
  local v: Ljava/lang/String;
  L0: v := @@a.G.cache
  L1: call {SNK}(v, v)
  L2: return
end
"""


class TestSliceSoundness:
    def assert_equivalent(self, source, spec):
        app = parse_app(source)
        full, oracle = oracle_flows(app, spec)
        targeted, sliced = targeted_flows(app, spec)
        assert sliced == oracle
        return app, full, targeted

    def test_relevant_caller_joins_slice(self):
        spec = TargetSpec.parse("SMS")
        app, _, targeted = self.assert_equivalent(CALLER_TAINT_SOURCE, spec)
        assert "a.B.top()V" in targeted.slice.members
        # The taint-free bystander is not pulled in.
        assert "a.B.bystander()V" not in targeted.slice.members
        flows = {f.method for f in targeted_flows(app, spec)[1]}
        assert "a.B.emit(Ljava/lang/String;)V" in flows

    def test_global_writer_joins_slice(self):
        spec = TargetSpec.parse("SMS")
        app, _, targeted = self.assert_equivalent(GLOBAL_CHANNEL_SOURCE, spec)
        assert "a.B.stash()V" in targeted.slice.members
        assert targeted_flows(app, spec)[1]

    def test_callee_cone_joins_slice(self, leaky_app):
        spec = TargetSpec.parse("SMS")
        _, _, targeted = self.assert_equivalent(LEAKY_APP_SOURCE, spec)
        assert "com.leaky.Main.leak()V" in targeted.slice.members
        # clean() calls only the LOG sink; it cannot affect SMS flows.
        assert "com.leaky.Main.clean()V" not in targeted.slice.members

    def test_taint_relevance_over_approximation(self):
        app = parse_app(CALLER_TAINT_SOURCE)
        from repro.cfg.callgraph import CallGraph

        relevant = taint_relevant_methods(app, CallGraph(app))
        assert "a.B.top()V" in relevant
        assert "a.B.emit(Ljava/lang/String;)V" in relevant
        assert "a.B.bystander()V" not in relevant

    def test_slice_facts_bit_identical(self):
        # R2 (full callee cone) guarantees every slice member's fact
        # space and fixpoint match the full run exactly.
        spec = TargetSpec.parse("SMS")
        app = parse_app(CALLER_TAINT_SOURCE)
        full = AppWorkload.build(app)
        targeted = build_targeted_workload(app, spec)
        for signature in targeted.slice.members:
            mine = targeted.workload.idfg.facts_of(signature)
            theirs = full.idfg.facts_of(signature)
            assert mine.node_facts == theirs.node_facts
            assert mine.exit_facts == theirs.exit_facts

    def test_backward_slice_from_no_anchors(self, leaky_app):
        result = backward_slice(leaky_app, [])
        assert result.members == frozenset()


class TestCorpusEquivalence:
    @pytest.mark.parametrize("category", ["SMS", "NETWORK", "LOG", "FILE"])
    def test_flows_match_oracle(self, category):
        spec = TargetSpec.parse(category)
        corpus = AppCorpus(size=6, profile=TINY_PROFILE)
        for index in range(corpus.size):
            app = corpus.app(index)
            _, oracle = oracle_flows(app, spec)
            targeted, sliced = targeted_flows(app, spec)
            assert sliced == oracle, f"app {index}, {category}"
            if targeted.workload is None:
                assert oracle == frozenset()

    def test_slice_never_exceeds_app(self):
        spec = TargetSpec.all_sinks()
        corpus = AppCorpus(size=4, profile=TINY_PROFILE)
        for index in range(corpus.size):
            targeted = build_targeted_workload(corpus.app(index), spec)
            stats = targeted.stats
            assert 0 <= stats.slice_methods <= stats.full_methods
            assert 0 <= stats.slice_nodes <= stats.full_nodes
            assert 0.0 <= stats.slice_fraction <= 1.0


class TestSkipPath:
    def test_no_anchor_skips_idfg(self):
        app = parse_app(
            "app com.noop\nmethod a.B.m()V\n  L0: return\nend\n"
        )
        with obs.tracing() as tracer:
            targeted = build_targeted_workload(app, TargetSpec.parse("SMS"))
        assert targeted.workload is None and targeted.sliced_app is None
        stats = targeted.stats
        assert stats.skipped_idfg and stats.anchors == 0
        assert stats.slice_methods == 0 and stats.slice_nodes == 0
        assert tracer.counters.get("vet.targeted.skipped_idfg") == 1
        assert "vet.targeted.slice_methods" not in tracer.counters

    def test_skip_reports_clean(self, leaky_app):
        # Leaky via SMS, but the caller only asked about NETWORK.
        report, stats = vet_targeted(leaky_app, TargetSpec.parse("NETWORK"))
        assert stats.skipped_idfg
        assert report.verdict == "clean" and report.risk_score == 0
        assert report.flows == () and not report.is_suspicious

    def test_anchored_run_records_counters(self, leaky_app):
        with obs.tracing() as tracer:
            build_targeted_workload(leaky_app, TargetSpec.parse("SMS"))
        assert tracer.counters.get("vet.targeted.anchors") == 1
        assert tracer.counters.get("vet.targeted.slice_methods", 0) >= 1
        assert "vet.targeted.skipped_idfg" not in tracer.counters

    def test_targeted_report_matches_oracle_severity(self, leaky_app):
        from repro.vetting.report import vet_app

        report, stats = vet_targeted(leaky_app, TargetSpec.parse("SMS"))
        oracle = vet_app(leaky_app)
        assert not stats.skipped_idfg
        assert report.risk_score == oracle.risk_score
        assert report.verdict == oracle.verdict
        assert {f.sink_label for f in report.flows} == {
            f.sink_label for f in oracle.flows
        }


class TestCacheAliasing:
    def test_row_key_fingerprints_targets(self):
        from repro.bench.cache import row_key

        base = row_key(7, 4, "pfp", 0, "cfg")
        assert base == row_key(7, 4, "pfp", 0, "cfg", "")
        targeted = row_key(7, 4, "pfp", 0, "cfg", "abc123")
        assert base != targeted
        assert targeted != row_key(7, 4, "pfp", 0, "cfg", "abc124")

    def test_corpus_rows_never_alias(self, tmp_path, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_BENCH_CACHE", "1")
        monkeypatch.setattr(harness, "_CACHE", {})
        # Index 4 is the first tiny-corpus app that calls any sink, so
        # size=5 exercises both the skip rows and a cacheable sliced row.
        corpus = AppCorpus(size=5, profile=TINY_PROFILE)
        spec = TargetSpec.all_sinks()

        full = harness.evaluate_corpus(corpus)
        assert all(isinstance(r, harness.AppEvaluation) for r in full)

        # Fresh process cache: the targeted sweep must not be served
        # any of the full rows from disk.
        monkeypatch.setattr(harness, "_CACHE", {})
        targeted = harness.evaluate_corpus(corpus, targets=spec)
        stats = harness.last_run_stats()
        assert stats.disk_hits == 0 and stats.process_hits == 0

        for full_row, row in zip(full, targeted):
            if isinstance(row, harness.TargetedSkipRow):
                assert row.targets == spec.sinks
            else:
                assert row.methods <= full_row.methods

        # Disk round-trip: targeted AppEvaluation rows are served back
        # bit-identically; skip rows are recomputed (never cached).
        monkeypatch.setattr(harness, "_CACHE", {})
        again = harness.evaluate_corpus(corpus, targets=spec)
        assert again == targeted
        cached = harness.last_run_stats().disk_hits
        expected = sum(
            isinstance(r, harness.AppEvaluation) for r in targeted
        )
        assert cached == expected

    def test_process_cache_keys_carry_fingerprint(self, monkeypatch):
        import repro.bench.harness as harness

        monkeypatch.setenv("REPRO_BENCH_CACHE", "0")
        monkeypatch.setattr(harness, "_CACHE", {})
        corpus = AppCorpus(size=5, profile=TINY_PROFILE)
        spec = TargetSpec.all_sinks()
        harness.evaluate_corpus(corpus)
        harness.evaluate_corpus(corpus, targets=spec)
        fingerprints = {key[4] for key in harness._CACHE}
        assert "" in fingerprints
        assert spec.fingerprint() in fingerprints


class TestServeTargeted:
    def test_run_pipeline_skip(self, leaky_app):
        from repro.bench.harness import TargetedSkipRow
        from repro.serve.workers import run_pipeline

        result = run_pipeline(
            leaky_app, 0, "gdroid", False, True,
            targets=TargetSpec.parse("NETWORK"),
        )
        assert isinstance(result.row, TargetedSkipRow)
        assert result.latency_s == 0.0
        assert result.verdict == "clean" and result.risk_score == 0

    def test_run_pipeline_anchored(self, leaky_app):
        from repro.bench.harness import AppEvaluation
        from repro.serve.workers import run_pipeline

        result = run_pipeline(
            leaky_app, 0, "gdroid", False, True,
            targets=TargetSpec.parse("SMS"),
        )
        assert isinstance(result.row, AppEvaluation)
        assert result.latency_s and result.latency_s > 0.0
        assert result.verdict == "likely-malicious"

    def test_jobs_size_targeted_by_slice(self):
        from repro.serve.service import CorpusSource

        corpus = AppCorpus(size=4, profile=TINY_PROFILE)
        spec = TargetSpec.all_sinks()
        source = CorpusSource(corpus)
        jobs = source.jobs(targets=spec, targeted_every=2)
        assert [bool(j.targets) for j in jobs] == [True, False, True, False]
        for job in jobs:
            if job.targets:
                anchors, nodes = slice_estimate(
                    corpus.app(job.index), spec
                )
                assert job.est_cost == float(nodes)
                assert sorted(job.targets) == list(spec.sinks)
            else:
                full = corpus.app(job.index).describe()["cfg_nodes"]
                assert job.est_cost == float(full)

    def test_job_json_carries_targets(self):
        from repro.serve.service import CorpusSource

        corpus = AppCorpus(size=2, profile=TINY_PROFILE)
        jobs = CorpusSource(corpus).jobs(targets=TargetSpec.parse("SMS"))
        payload = jobs[0].to_json()
        assert payload["targets"] == [SNK]
        assert CorpusSource(corpus).jobs()[0].to_json()["targets"] is None

    def test_mixed_soak_zero_lost_jobs(self):
        from repro.serve import ServeConfig, run_soak

        corpus = AppCorpus(size=10, profile=TINY_PROFILE)
        report = run_soak(
            corpus,
            config=ServeConfig(workers=3),
            inject=frozenset({"worker-crash", "oom"}),
            targets=TargetSpec.all_sinks(),
            targeted_every=2,
        )
        assert report.ok and report.lost == 0 and report.duplicates == 0
        targeted = [j for j in report.jobs if j.targets]
        assert len(targeted) == 5
        assert all(j.state == "done" for j in report.jobs)


class TestTargetedCLI:
    def _leaky_gdx(self, tmp_path):
        path = tmp_path / "leaky.gdx"
        save_gdx(parse_app(LEAKY_APP_SOURCE), path)
        return str(path)

    def test_vet_targets_hit(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["vet", self._leaky_gdx(tmp_path), "--targets", "SMS"])
        out = capsys.readouterr().out
        assert code == 2
        assert "targeted vet [SMS]" in out and "1 anchor(s)" in out

    def test_vet_targets_skip(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["vet", self._leaky_gdx(tmp_path), "--targets", "NETWORK"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "IDFG skipped" in out and "clean" in out

    def test_vet_targets_file(self, tmp_path, capsys):
        from repro.cli import main

        targets = tmp_path / "targets.txt"
        targets.write_text("SMS\n# comment\n")
        code = main(
            [
                "vet",
                self._leaky_gdx(tmp_path),
                "--targets-file",
                str(targets),
            ]
        )
        assert code == 2

    def test_vet_targets_errors(self, tmp_path, capsys):
        from repro.cli import main

        gdx = self._leaky_gdx(tmp_path)
        assert main(["vet", gdx, "--targets", "BOGUS"]) == 2
        assert "unknown sink target" in capsys.readouterr().err
        targets = tmp_path / "targets.txt"
        targets.write_text("SMS\n")
        code = main(
            ["vet", gdx, "--targets", "SMS", "--targets-file", str(targets)]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_serve_targets_smoke(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve",
                "--apps", "6",
                "--scale", "0.06",
                "--workers", "2",
                "--soak",
                "--targets", "SMS",
                "--targets-every", "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        targeted = [j for j in payload["jobs"] if j["targets"]]
        assert len(targeted) == 3
        assert all(j["state"] == "done" for j in payload["jobs"])


class TestTargetedWitnesses:
    """The targeted report's witnesses come from the flow-only helper
    and equal those every method's DDG gives."""

    def _check(self, app, spec, pack, ddg_builds):
        targeted = build_targeted_workload(app, spec)
        del ddg_builds[:]
        report = vet_targeted_report(targeted, rules=pack)
        if targeted.workload is None:
            assert report.witnesses == {} and ddg_builds == []
            return 0
        workload = targeted.workload
        assert set(ddg_builds) == {flow.method for flow in report.flows}
        expected = every_method_witnesses(
            workload.analyzed_app, workload.idfg, report.flows
        )
        assert report.witnesses == expected
        assert report.findings == build_findings(
            pack,
            workload.analyzed_app,
            flows=report.flows,
            icc_flows=(),
            witnesses=expected,
            sanitizer_kills=report.sanitizer_kills,
            package=targeted.stats.package,
        )
        return len(expected)

    def test_leaky_app_sms(self, leaky_app, ddg_builds):
        pack = load_pack("exfiltration")
        spec = TargetSpec.parse("SMS")
        assert self._check(leaky_app, spec, pack, ddg_builds) == 1

    def test_corpus_all_sinks(self, ddg_builds):
        pack = load_pack("exfiltration")
        spec = TargetSpec.all_sinks()
        corpus = AppCorpus(size=6, profile=TINY_PROFILE)
        witnessed = sum(
            self._check(corpus.app(index), spec, pack, ddg_builds)
            for index in range(corpus.size)
        )
        assert witnessed > 0
