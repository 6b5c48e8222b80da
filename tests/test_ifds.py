"""IFDS tabulation solver tests + cross-validation with the plugin."""

import pytest

from repro.cfg.environment import app_with_environments
from repro.core.engine import AppWorkload
from repro.dataflow.ifds import IfdsSolver
from repro.ir.parser import parse_app
from repro.vetting.taint import TaintAnalysis
from tests.conftest import tiny_app

SRC = "android.telephony.TelephonyManager.getDeviceId()Ljava/lang/String;"
SNK = "android.telephony.SmsManager.sendTextMessage(Ljava/lang/String;Ljava/lang/String;)V"


def solve(source: str):
    app = parse_app(source)
    solver = IfdsSolver(app)
    solver.solve()
    return app, solver


class TestIntraprocedural:
    def test_direct_flow(self):
        _, solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local id: Ljava/lang/String;\n"
            "  local out: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            "  L1: out := id\n"
            f"  L2: call {SNK}(out, out)\n"
            "  L3: return\nend\n"
        )
        flows = solver.sink_flows()
        assert flows and flows[0].tainted_argument == "out"

    def test_strong_update_kills_taint(self):
        _, solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local id: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            '  L1: id := "clean"\n'
            f"  L2: call {SNK}(id, id)\n"
            "  L3: return\nend\n"
        )
        assert solver.sink_flows() == []

    def test_branch_join_keeps_taint(self):
        _, solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local id: Ljava/lang/String;\n"
            "  local c: I\n"
            f"  L0: call id := {SRC}()\n"
            "  L1: if c then goto L3\n"
            '  L2: id := "clean"\n'
            f"  L3: call {SNK}(id, id)\n"
            "  L4: return\nend\n"
        )
        assert solver.sink_flows()  # the tainted path survives the join

    def test_global_channel(self):
        _, solver = solve(
            "app p\n"
            "method a.B.m()V\n"
            "  local id: Ljava/lang/String;\n"
            "  local v: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            "  L1: @@a.G.c := id\n"
            "  L2: v := @@a.G.c\n"
            f"  L3: call {SNK}(v, v)\n"
            "  L4: return\nend\n"
        )
        assert solver.sink_flows()


class TestInterprocedural:
    def test_flow_through_return(self):
        _, solver = solve(
            "app p\n"
            "method a.B.fetch()Ljava/lang/String;\n"
            "  local id: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            "  L1: return id\nend\n"
            "method a.B.top()V\n"
            "  local v: Ljava/lang/String;\n"
            "  L0: call v := a.B.fetch()Ljava/lang/String;()\n"
            f"  L1: call {SNK}(v, v)\n"
            "  L2: return\nend\n"
        )
        flows = solver.sink_flows()
        assert any(f.method == "a.B.top()V" for f in flows)

    def test_flow_through_parameter(self):
        _, solver = solve(
            "app p\n"
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
        assert any(
            f.method == "a.B.emit(Ljava/lang/String;)V"
            for f in solver.sink_flows()
        )

    def test_context_sensitivity(self):
        """The identity callee must not conflate its two call sites."""
        _, solver = solve(
            "app p\n"
            "method a.B.id(Ljava/lang/String;)Ljava/lang/String;\n"
            "  param x: Ljava/lang/String;\n"
            "  L0: return x\nend\n"
            "method a.B.top()V\n"
            "  local dirty: Ljava/lang/String;\n"
            "  local clean: Ljava/lang/String;\n"
            "  local out1: Ljava/lang/String;\n"
            "  local out2: Ljava/lang/String;\n"
            f"  L0: call dirty := {SRC}()\n"
            '  L1: clean := "ok"\n'
            "  L2: call out1 := a.B.id(Ljava/lang/String;)Ljava/lang/String;(dirty)\n"
            "  L3: call out2 := a.B.id(Ljava/lang/String;)Ljava/lang/String;(clean)\n"
            f"  L4: call {SNK}(out2, out2)\n"
            f"  L5: call {SNK}(out1, out1)\n"
            "  L6: return\nend\n"
        )
        flows = solver.sink_flows()
        tainted_args = {f.tainted_argument for f in flows}
        assert "out1" in tainted_args
        assert "out2" not in tainted_args, "context conflation"

    def test_external_call_launders(self):
        append = "java.lang.StringBuilder.append(Ljava/lang/String;)Ljava/lang/String;"
        _, solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local id: Ljava/lang/String;\n"
            "  local out: Ljava/lang/String;\n"
            f"  L0: call id := {SRC}()\n"
            f"  L1: call out := {append}(id)\n"
            f"  L2: call {SNK}(out, out)\n"
            "  L3: return\nend\n"
        )
        assert solver.sink_flows()


class TestCrossValidation:
    def _plugin_flow_keys(self, app):
        workload = AppWorkload.build(app, record_mer=False)
        analysis = TaintAnalysis(workload.analyzed_app, workload.idfg)
        return {
            (flow.method, flow.sink_label) for flow in analysis.run()
        }

    @pytest.mark.parametrize("seed", [0, 2, 5, 8])
    def test_ifds_flows_subset_of_plugin(self, seed):
        """Every (heap-free) IFDS flow must be found by the points-to
        plugin too: two independent engines, one ground truth."""
        app = tiny_app(seed)
        analyzed = app_with_environments(app)
        solver = IfdsSolver(analyzed)
        solver.solve()
        ifds_keys = {
            (flow.method, flow.sink_label) for flow in solver.sink_flows()
        }
        plugin_keys = self._plugin_flow_keys(app)
        missing = ifds_keys - plugin_keys
        assert not missing, f"plugin missed IFDS-confirmed flows: {missing}"

    def test_cross_validation_on_leaky_fixture(self, leaky_app):
        analyzed = app_with_environments(leaky_app)
        solver = IfdsSolver(analyzed)
        solver.solve()
        ifds_keys = {
            (flow.method, flow.sink_label) for flow in solver.sink_flows()
        }
        plugin_keys = self._plugin_flow_keys(leaky_app)
        assert ifds_keys <= plugin_keys
        # The fixture's heap-laundered leak is plugin-only territory;
        # its direct second argument (the raw id) is IFDS-visible.
        assert ("com.leaky.Main.leak()V", "L4") in plugin_keys
