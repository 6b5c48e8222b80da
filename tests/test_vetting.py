"""Vetting layer: taint flows, DDG, reports."""

import pytest

from repro.core.engine import AppWorkload
from repro.ir.parser import parse_app
from repro.rules.engine import build_findings
from repro.rules.pack import load_pack, shipped_packs
from repro.rules.scenarios import scenario_corpus
from repro.vetting.ddg import build_ddg, flow_witnesses
from repro.vetting.icc import IccFlow
from repro.vetting.report import _grade, vet_app, vet_workload
from repro.vetting.sources_sinks import (
    KIND_SINK,
    KIND_SOURCE,
    ApiEntry,
    ApiRegistry,
    flow_severity,
    is_sink,
    is_source,
)
from repro.vetting.taint import TaintAnalysis
from tests.conftest import every_method_witnesses

SRC = "android.telephony.TelephonyManager.getDeviceId()Ljava/lang/String;"
SNK = "android.telephony.SmsManager.sendTextMessage(Ljava/lang/String;Ljava/lang/String;)V"
LOG = "android.util.Log.d(Ljava/lang/String;Ljava/lang/String;)I"


def analyze(source: str):
    app = parse_app(source)
    workload = AppWorkload.build(app, record_mer=False)
    analysis = TaintAnalysis(workload.analyzed_app, workload.idfg)
    return app, workload, analysis.run()


class TestSourcesSinks:
    def test_membership(self):
        assert is_source(SRC) and is_sink(SNK)
        assert not is_source(SNK) and not is_sink(SRC)

    def test_severity_pairs(self):
        assert flow_severity(SRC, SNK) == 9
        assert flow_severity(SRC, LOG) == 3


class TestFlowSeverityEdges:
    ACC = "android.accounts.AccountManager.getAccounts()[Landroid/accounts/Account;"
    FILE = "java.io.FileOutputStream.write(Ljava/lang/String;)V"

    def test_unlisted_pair_falls_back_to_sink_default(self):
        # (ACCOUNT, FILE) has no entry in FLOW_SEVERITY; the FILE
        # channel default applies.
        assert flow_severity(self.ACC, self.FILE) == 4

    def test_unknown_source_uses_sink_default(self):
        assert flow_severity("unknown.Api()V", SNK) == 7

    def test_unknown_sink_scores_middle_of_the_road(self):
        assert flow_severity(SRC, "unknown.Sink()V") == 5

    def test_accepts_raw_category_names(self):
        # Unregistered signatures pass through as category names, so
        # the table can be queried symbolically too.
        assert flow_severity("LOCATION", "NETWORK") == 8


class TestIccGrading:
    def _icc_flow(self, receivers):
        return IccFlow(
            method="a.B.m()V",
            send_label="L1",
            send_api="android.content.Context.startActivity(Landroid/content/Intent;)V",
            target_kind="activity",
            source_apis=(SRC,),
            candidate_receivers=receivers,
        )

    def test_no_flows_is_clean(self):
        assert _grade((), ()) == (0, "clean")

    def test_escaping_icc_flow_is_suspicious(self):
        flow = self._icc_flow(receivers=("com.other.Exposed",))
        assert flow.escapes_app
        assert _grade((), (flow,)) == (6, "suspicious")

    def test_internal_icc_flow_is_low_risk(self):
        flow = self._icc_flow(receivers=())
        assert not flow.escapes_app
        assert _grade((), (flow,)) == (3, "low-risk")


class TestRegistryValidation:
    def _entry(self, signature="a.B.x()V", kind=KIND_SOURCE,
               category="LOCATION", permission=None):
        return ApiEntry(signature, kind, category, permission)

    def test_duplicate_signature_rejected(self):
        with pytest.raises(ValueError, match="duplicate registry signature"):
            ApiRegistry([self._entry(), self._entry()])

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError, match="invalid kind"):
            ApiRegistry([self._entry(kind="sourceish")])

    def test_invalid_category_rejected(self):
        with pytest.raises(ValueError, match="invalid category"):
            ApiRegistry([self._entry(category="")])

    def test_permission_conflict_rejected(self):
        entries = [
            self._entry("a.B.x()V", permission="android.permission.A"),
            self._entry("a.B.y()V", permission="android.permission.B"),
        ]
        with pytest.raises(ValueError, match="maps to both"):
            ApiRegistry(entries)

    def test_agreeing_permissions_accepted(self):
        registry = ApiRegistry(
            [
                self._entry("a.B.x()V", permission="android.permission.A"),
                self._entry("a.B.y()V", permission="android.permission.A"),
                self._entry("a.B.snk()V", kind=KIND_SINK, category="SMS"),
            ]
        )
        assert registry.category_permissions(KIND_SOURCE) == {
            "LOCATION": "android.permission.A"
        }
        assert registry.categories(kind=KIND_SINK) == ("SMS",)


class TestTaintDetection:
    def test_direct_leak(self, leaky_app):
        workload = AppWorkload.build(leaky_app, record_mer=False)
        flows = TaintAnalysis(workload.analyzed_app, workload.idfg).run()
        assert len(flows) >= 1
        flow = flows[0]
        assert flow.sink_api == SNK
        assert SRC in flow.source_apis
        assert flow.sink_category == "SMS"
        assert "UNIQUE_IDENTIFIER" in flow.source_categories

    def test_heap_laundering_detected(self, leaky_app):
        # The fixture stores the id into box.fData and reloads it; the
        # sink's first argument comes from the reload.
        workload = AppWorkload.build(leaky_app, record_mer=False)
        flows = TaintAnalysis(workload.analyzed_app, workload.idfg).run()
        labels = {f.sink_label for f in flows}
        assert "L4" in labels

    def test_clean_app_has_no_flows(self):
        _, _, flows = analyze(
            "app com.clean\n"
            "method a.B.m()V\n"
            "  local s: Ljava/lang/String;\n"
            '  L0: s := "static text"\n'
            f"  L1: call {LOG}(s, s)\n"
            "  L2: return\nend\n"
        )
        assert flows == []

    def test_interprocedural_return_flow(self):
        _, _, flows = analyze(
            "app com.inter\n"
            "method a.B.fetch()Ljava/lang/String;\n"
            "  local id: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            "  L1: return id\nend\n"
            "method a.B.emit()V\n"
            "  local v: Ljava/lang/String;\n"
            "  L0: call v := a.B.fetch()Ljava/lang/String;()\n"
            f"  L1: call {SNK}(v, v)\n"
            "  L2: return\nend\n"
        )
        assert any(f.method == "a.B.emit()V" for f in flows)

    def test_interprocedural_param_flow(self):
        _, _, flows = analyze(
            "app com.inter2\n"
            "method a.B.emit(Ljava/lang/String;)V\n"
            "  param data: Ljava/lang/String;\n"
            f"  L0: call {SNK}(data, data)\n"
            "  L1: return\nend\n"
            "method a.B.top()V\n"
            "  local id: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            "  L1: call a.B.emit(Ljava/lang/String;)V(id)\n"
            "  L2: return\nend\n"
        )
        assert any(f.method == "a.B.emit(Ljava/lang/String;)V" for f in flows)

    def test_global_channel_flow(self):
        _, _, flows = analyze(
            "app com.glob\n"
            "method a.B.stash()V\n"
            "  local id: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            "  L1: @@a.G.cache := id\n"
            "  L2: return\nend\n"
            "method a.B.dump()V\n"
            "  local v: Ljava/lang/String;\n"
            "  L0: v := @@a.G.cache\n"
            f"  L1: call {SNK}(v, v)\n"
            "  L2: return\nend\n"
        )
        assert any(f.method == "a.B.dump()V" for f in flows)

    def test_external_laundering(self):
        append = "java.lang.StringBuilder.append(Ljava/lang/String;)Ljava/lang/String;"
        _, _, flows = analyze(
            "app com.launder\n"
            "method a.B.m()V\n"
            "  local id: Ljava/lang/String;\n"
            "  local out: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            f"  L1: call out := {append}(id)\n"
            f"  L2: call {SNK}(out, out)\n"
            "  L3: return\nend\n"
        )
        assert flows


class TestDDG:
    def test_def_use_edges(self, leaky_app):
        workload = AppWorkload.build(leaky_app, record_mer=False)
        ddgs = build_ddg(workload.analyzed_app, workload.idfg)
        ddg = ddgs["com.leaky.Main.leak()V"]
        # The sink at L4 depends on the source call at L0.
        assert ddg.reaches("L0", "L4")
        path = ddg.witness_path("L0", "L4")
        assert path is not None and path[0] == "L0" and path[-1] == "L4"

    def test_unrelated_nodes_do_not_reach(self, leaky_app):
        workload = AppWorkload.build(leaky_app, record_mer=False)
        ddgs = build_ddg(workload.analyzed_app, workload.idfg)
        clean = ddgs["com.leaky.Main.clean()V"]
        assert not clean.reaches("L1", "L0")


class TestReport:
    def test_leaky_report(self, leaky_app):
        report = vet_app(leaky_app)
        assert report.verdict == "likely-malicious"
        assert report.risk_score == 9
        assert report.is_suspicious
        assert "android.permission.READ_PHONE_STATE" in report.implied_permissions
        assert report.analysis_time_s > 0
        assert "SMS" in report.summary()

    def test_clean_report(self):
        app = parse_app(
            "app com.clean\n"
            "method a.B.m()V\n  L0: return\nend\n"
        )
        workload = AppWorkload.build(app, record_mer=False)
        report = vet_workload(app, workload)
        assert report.verdict == "clean"
        assert report.risk_score == 0
        assert not report.is_suspicious


class TestFlowWitnesses:
    """Witnesses come from flow-carrying methods' DDGs only, and equal
    the ones every method's DDG gives."""

    @pytest.mark.parametrize("pack_name", shipped_packs())
    def test_scenario_corpus_matches_every_method_ddg(
        self, pack_name, ddg_builds
    ):
        pack = load_pack(pack_name)
        witnessed = 0
        for scenario in scenario_corpus(pack, count=3):
            workload = AppWorkload.build(scenario.app, record_mer=False)
            del ddg_builds[:]
            report = vet_workload(
                scenario.app, workload, rules=pack,
                manifest=scenario.manifest,
            )
            assert set(ddg_builds) == {flow.method for flow in report.flows}
            assert len(ddg_builds) == len(set(ddg_builds))
            expected = every_method_witnesses(
                workload.analyzed_app, workload.idfg, report.flows
            )
            assert report.witnesses == expected, scenario.name
            assert report.findings == build_findings(
                pack,
                scenario.app,
                flows=report.flows,
                icc_flows=report.icc_flows,
                linked_flows=report.linked_flows,
                witnesses=expected,
                sanitizer_kills=report.sanitizer_kills,
                manifest=scenario.manifest,
            ), scenario.name
            witnessed += len(expected)
        if not pack.scenarios_via_icc:
            # ICC scenarios leak through Intents, never at a sink call.
            assert witnessed > 0

    def test_leaky_app(self, leaky_app):
        workload = AppWorkload.build(leaky_app, record_mer=False)
        flows = TaintAnalysis(workload.analyzed_app, workload.idfg).run()
        witnesses = flow_witnesses(
            workload.analyzed_app, workload.idfg, flows
        )
        assert witnesses == every_method_witnesses(
            workload.analyzed_app, workload.idfg, flows
        )
        assert witnesses["L4"][0] == "L0"
