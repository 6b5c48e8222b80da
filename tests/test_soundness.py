"""Soundness: concrete executions are covered by the static facts.

The heaviest-calibre correctness property in the suite: run a method
*concretely* (real heap, random branches) many times and check every
runtime points-to observation is present in the analysis' fact set at
that node.  A single violation would mean the transfer functions
under-approximate -- the one thing a static analysis must never do.

Scope: methods without internal callees (external calls are fine --
their opaque results are modeled exactly).  Cross-method flows rely on
summaries whose documented precision loss (field contents of
callee-fresh returns) is deliberate and covered by the targeted unit
tests instead.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.concrete import (
    ConcreteInterpreter,
    ExecutionBudgetExceeded,
    soundness_violations,
)
from repro.dataflow.worklist import SequentialWorklist
from repro.ir.parser import parse_app
from tests.conftest import tiny_app


def check_method(app, method, seeds) -> None:
    result = SequentialWorklist(method).run()
    for seed in seeds:
        interpreter = ConcreteInterpreter(app, method, seed=seed)
        try:
            observations = interpreter.run()
        except ExecutionBudgetExceeded:
            continue  # unlucky random walk in a hot loop; skip
        violations = soundness_violations(
            method, observations, result.node_facts, result.space
        )
        assert not violations, (
            f"{method.signature}: static facts miss concrete observations "
            f"{violations[:3]} (seed {seed})"
        )


class TestHandWritten:
    def test_demo_methods(self, demo_app):
        helper = demo_app.method(
            "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
        )
        check_method(demo_app, helper, seeds=range(10))

    def test_leaky_methods(self, leaky_app):
        for method in leaky_app.methods:
            check_method(leaky_app, method, seeds=range(10))

    def test_loop_and_heap(self):
        app = parse_app(
            "app p\n"
            "method a.B.m(Ljava/lang/Object;)V\n"
            "  param p: Ljava/lang/Object;\n"
            "  local x: Ljava/lang/Object;\n"
            "  local y: Ljava/lang/Object;\n"
            "  local c: I\n"
            "  L0: x := new a.B\n"
            "  L1: x.f := p\n"
            "  L2: y := x.f\n"
            "  L3: x.f := y\n"
            "  L4: y := p.f\n"
            "  L5: if c then goto L0\n"
            "  L6: return\nend\n"
        )
        check_method(app, app.method("a.B.m(Ljava/lang/Object;)V"), range(25))

    def test_exception_handler_path(self):
        app = parse_app(
            "app p\n"
            "method a.B.m()V\n"
            "  local x: Ljava/lang/Object;\n"
            "  local e: Ljava/lang/Object;\n"
            "  catch L3 from L0 to L2\n"
            "  L0: x := new a.B\n"
            "  L1: throw x\n"
            "  L2: nop\n"
            "  L3: e := Exception\n"
            "  L4: x := e\n"
            "  L5: return\nend\n"
        )
        check_method(app, app.method("a.B.m()V"), range(10))


@settings(max_examples=10, deadline=None)
@given(
    app_seed=st.integers(min_value=0, max_value=300),
    run_seed=st.integers(min_value=0, max_value=1_000),
)
def test_generated_leaf_methods_are_sound(app_seed, run_seed):
    """Property: random apps, random executions, zero violations."""
    app = tiny_app(app_seed)
    leaves = [
        method
        for method in app.methods
        if not any(callee in app.method_table for callee in method.callees())
    ]
    # The biggest leaves exercise the most statement variety.
    for method in sorted(leaves, key=len, reverse=True)[:3]:
        check_method(app, method, seeds=(run_seed, run_seed + 1))
