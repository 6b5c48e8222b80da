"""Unit tests for intra-CFG, call graph, environments and ICFG."""

from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import (
    app_with_environments,
    synthesize_environment,
    synthesize_environments,
)
from repro.cfg.icfg import build_icfg
from repro.cfg.intra import build_intra_cfg
from repro.ir.parser import parse_app


def cfg_of(body: str, extra: str = ""):
    app = parse_app(f"app p\nmethod a.B.m()V\n{extra}{body}end\n")
    return build_intra_cfg(app.method("a.B.m()V"))


class TestIntraCFG:
    def test_straight_line(self):
        cfg = cfg_of("  L0: nop\n  L1: nop\n  L2: return\n")
        assert cfg.successors == ((1,), (2,), ())
        assert cfg.exits == (2,)
        assert cfg.entry == 0
        assert not cfg.has_back_edge()

    def test_branch_and_join(self):
        cfg = cfg_of(
            "  L0: if c then goto L2\n  L1: nop\n  L2: return\n"
        )
        assert set(cfg.successors[0]) == {1, 2}
        assert cfg.predecessors[2] == (0, 1)

    def test_loop_detected(self):
        cfg = cfg_of("  L0: nop\n  L1: if c then goto L0\n  L2: return\n")
        assert cfg.has_back_edge()

    def test_goto_has_no_fall_through(self):
        cfg = cfg_of("  L0: goto L2\n  L1: nop\n  L2: return\n")
        assert cfg.successors[0] == (2,)

    def test_reachability_skips_orphans(self):
        cfg = cfg_of("  L0: goto L2\n  L1: nop\n  L2: return\n")
        assert 1 not in cfg.reachable_nodes()

    def test_exception_edges(self):
        cfg = cfg_of(
            "  L0: o := new a.B\n"
            "  L1: nop\n"
            "  L2: nop\n"
            "  L3: o := Exception\n"
            "  L4: return\n",
            extra="  local o: Ljava/lang/Object;\n  catch L3 from L0 to L1\n",
        )
        # L0 may throw -> edge to the handler at index 3; L1 is a nop
        # inside the covered range and cannot throw.
        assert 3 in cfg.successors[0]
        assert cfg.successors[1] == (2,)

    def test_edge_count(self):
        cfg = cfg_of("  L0: nop\n  L1: return\n")
        assert cfg.edge_count() == 1


class TestCallGraphAndLayering:
    def test_layers_bottom_up(self, demo_app):
        layering = SBDALayering(CallGraph(demo_app))
        helper = "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
        main = "com.demo.Main.onCreate(Landroid/content/Intent;)V"
        assert layering.layer_of(helper) == 0
        assert layering.layer_of(main) == 1
        layering.validate()

    def test_external_callees_tracked(self, leaky_app):
        graph = CallGraph(leaky_app)
        externals = graph.external_callees[
            "com.leaky.Main.leak()V"
        ]
        assert any("TelephonyManager" in callee for callee in externals)
        assert graph.edge_count() == 0

    def test_recursive_scc_shares_layer(self):
        app = parse_app(
            "app p\n"
            "method a.B.f()V\n  L0: call a.B.g()V()\n  L1: return\nend\n"
            "method a.B.g()V\n  L0: call a.B.f()V()\n  L1: return\nend\n"
        )
        layering = SBDALayering(CallGraph(app))
        assert layering.scc_of("a.B.f()V") == ("a.B.f()V", "a.B.g()V")
        assert CallGraph(app).is_recursive()
        layering.validate()

    def test_bottom_up_respects_dependencies(self, demo_app):
        layering = SBDALayering(CallGraph(demo_app))
        seen = set()
        for scc in layering.bottom_up():
            for signature in scc:
                for callee in demo_app.method_table[signature].callees():
                    if callee in demo_app.method_table and callee not in scc:
                        assert callee in seen
                seen.add(signature)


class TestEnvironments:
    def test_environment_calls_every_callback(self, demo_app):
        component = demo_app.components[0]
        env = synthesize_environment(component, demo_app)
        callees = env.callees()
        assert set(callees) == set(component.callbacks.values())
        # The loop back edge over-approximates framework re-driving.
        assert build_intra_cfg(env).has_back_edge()

    def test_app_with_environments_adds_methods(self, demo_app):
        augmented = app_with_environments(demo_app)
        assert len(augmented.methods) == len(demo_app.methods) + 1
        assert "com.demo.Main.__env__()V" in augmented.method_table

    def test_environments_keyed_by_signature(self, demo_app):
        envs = synthesize_environments(demo_app)
        assert list(envs) == ["com.demo.Main.__env__()V"]


class TestICFG:
    def test_spans_are_contiguous(self, demo_app):
        augmented = app_with_environments(demo_app)
        icfg = build_icfg(augmented)
        for signature, (start, end) in icfg.method_span.items():
            for node in range(start, end):
                assert icfg.method_of(node) == signature

    def test_call_and_return_edges(self, demo_app):
        augmented = app_with_environments(demo_app)
        icfg = build_icfg(augmented)
        main = "com.demo.Main.onCreate(Landroid/content/Intent;)V"
        helper = "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
        call_sites = [
            (site, entry)
            for site, entry in icfg.call_edges
            if icfg.method_of(site) == main and icfg.method_of(entry) == helper
        ]
        assert call_sites, "expected a call edge main -> helper"
        site = call_sites[0][0]
        helper_exit_returns = [
            (source, target)
            for source, target in icfg.return_edges
            if icfg.method_of(source) == helper
        ]
        assert helper_exit_returns
        # Interprocedural successors include the callee entry.
        assert call_sites[0][1] in icfg.interprocedural_successors(site)

    def test_node_count_covers_reachable_methods(self, demo_app):
        augmented = app_with_environments(demo_app)
        icfg = build_icfg(augmented)
        expected = sum(
            len(augmented.method_table[s]) for s in icfg.method_span
        )
        assert len(icfg) == expected

    def test_default_roots_without_components(self):
        app = parse_app(
            "app p\n"
            "method a.B.top()V\n  L0: call a.B.leaf()V()\n  L1: return\nend\n"
            "method a.B.leaf()V\n  L0: return\nend\n"
        )
        icfg = build_icfg(app)
        assert set(icfg.methods()) == {"a.B.top()V", "a.B.leaf()V"}
