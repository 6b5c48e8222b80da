"""Sequential worklist (Alg. 1) reference tests."""

from repro.dataflow.worklist import (
    SequentialWorklist,
    analyze_app_reference,
    compute_summaries,
)
from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.ir.parser import parse_app


class TestSingleMethod:
    def test_facts_flow_through_loop(self, demo_app):
        method = demo_app.method(
            "com.demo.Main.onCreate(Landroid/content/Intent;)V"
        )
        result = SequentialWorklist(method).run()
        # After the back edge, L0's entry facts include the heap write
        # performed at L1 on an earlier trip.
        decoded = {str(f) for f in result.decoded(0)}
        assert any("'heap'" in f for f in decoded)

    def test_empty_method(self):
        app = parse_app("app p\nmethod a.B.m()V\nend\n")
        result = SequentialWorklist(app.method("a.B.m()V")).run()
        assert result.node_facts == ()
        assert result.exit_facts == 0

    def test_visit_counter(self, demo_app):
        method = demo_app.method(
            "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
        )
        runner = SequentialWorklist(method)
        runner.run()
        assert runner.visits >= len(method.statements)

    def test_unreachable_nodes_stay_empty(self):
        app = parse_app(
            "app p\nmethod a.B.m()V\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: goto L2\n"
            "  L1: x := new a.B\n"
            "  L2: return\nend\n"
        )
        result = SequentialWorklist(app.method("a.B.m()V")).run()
        assert result.node_facts[1] == 0


class TestAppReference:
    def test_demo_app_converges(self, demo_app):
        idfg = analyze_app_reference(demo_app)
        assert idfg.total_fact_count() > 0
        # Environment methods are analyzed too.
        assert any("__env__" in m for m in idfg.methods())

    def test_summaries_enable_interprocedural_flow(self, demo_app):
        idfg = analyze_app_reference(demo_app)
        helper = "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
        assert idfg.summaries[helper].return_pfields == frozenset({(0, "f")})

    def test_recursive_scc_summary_fixed_point(self):
        app = parse_app(
            "app p\n"
            "method a.B.f(Ljava/lang/Object;)Ljava/lang/Object;\n"
            "  param p: Ljava/lang/Object;\n"
            "  local r: Ljava/lang/Object;\n"
            "  local c: I\n"
            "  L0: if c then goto L3\n"
            "  L1: call r := a.B.g(Ljava/lang/Object;)Ljava/lang/Object;(p)\n"
            "  L2: return r\n"
            "  L3: return p\n"
            "end\n"
            "method a.B.g(Ljava/lang/Object;)Ljava/lang/Object;\n"
            "  param q: Ljava/lang/Object;\n"
            "  local s: Ljava/lang/Object;\n"
            "  L0: call s := a.B.f(Ljava/lang/Object;)Ljava/lang/Object;(q)\n"
            "  L1: return s\n"
            "end\n"
        )
        layering = SBDALayering(CallGraph(app))
        summaries = compute_summaries(app, layering)
        # Mutual recursion: both must discover they may return param 0.
        f = summaries["a.B.f(Ljava/lang/Object;)Ljava/lang/Object;"]
        g = summaries["a.B.g(Ljava/lang/Object;)Ljava/lang/Object;"]
        assert 0 in f.return_params
        assert 0 in g.return_params

    def test_self_recursion(self):
        app = parse_app(
            "app p\n"
            "method a.B.f(Ljava/lang/Object;)Ljava/lang/Object;\n"
            "  param p: Ljava/lang/Object;\n"
            "  local r: Ljava/lang/Object;\n"
            "  local c: I\n"
            "  L0: if c then goto L3\n"
            "  L1: call r := a.B.f(Ljava/lang/Object;)Ljava/lang/Object;(p)\n"
            "  L2: return r\n"
            "  L3: return p\n"
            "end\n"
        )
        idfg = analyze_app_reference(app, with_environments=False)
        summary = idfg.summaries["a.B.f(Ljava/lang/Object;)Ljava/lang/Object;"]
        assert 0 in summary.return_params
