"""Unit tests for the concrete interpreter itself."""

import pytest

from repro.dataflow.concrete import (
    ConcreteInterpreter,
    ExecutionBudgetExceeded,
)
from repro.ir.parser import parse_app


def interpret(source: str, signature: str, seed: int = 0, **kwargs):
    app = parse_app(source)
    interpreter = ConcreteInterpreter(
        app, app.method(signature), seed=seed, **kwargs
    )
    return interpreter, interpreter.run()


class TestBasics:
    def test_observations_tag_allocations(self):
        _, observations = interpret(
            "app p\nmethod a.B.m()V\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := new a.B\n  L1: nop\n  L2: return\nend\n",
            "a.B.m()V",
        )
        tags = {o.tag for o in observations if o.variable == "x"}
        assert ("site", "L0", "a.B") in tags

    def test_param_objects_are_symbolic(self):
        _, observations = interpret(
            "app p\nmethod a.B.m(Ljava/lang/Object;)V\n"
            "  param p: Ljava/lang/Object;\n"
            "  L0: nop\n  L1: return\nend\n",
            "a.B.m(Ljava/lang/Object;)V",
        )
        assert ("param", 0) in {o.tag for o in observations}

    def test_param_field_loads_use_pfield_tags(self):
        _, observations = interpret(
            "app p\nmethod a.B.m(Ljava/lang/Object;)V\n"
            "  param p: Ljava/lang/Object;\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := p.f\n  L1: nop\n  L2: return\nend\n",
            "a.B.m(Ljava/lang/Object;)V",
        )
        assert ("pfield", 0, "f") in {
            o.tag for o in observations if o.variable == "x"
        }

    def test_budget_exceeded_on_hot_loop(self):
        app = parse_app(
            "app p\nmethod a.B.m()V\n  L0: goto L0\n  L1: return\nend\n"
        )
        interpreter = ConcreteInterpreter(
            app, app.method("a.B.m()V"), max_steps=50
        )
        with pytest.raises(ExecutionBudgetExceeded):
            interpreter.run()

    def test_throw_without_handler_terminates(self):
        _, observations = interpret(
            "app p\nmethod a.B.m()V\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := new a.B\n  L1: throw x\n  L2: x := new a.C\n"
            "  L3: return\nend\n",
            "a.B.m()V",
        )
        # L2 never executes.
        assert all(o.node != 2 for o in observations)

    def test_throw_reaches_handler(self):
        _, observations = interpret(
            "app p\nmethod a.B.m()V\n"
            "  local x: Ljava/lang/Object;\n"
            "  catch L2 from L0 to L1\n"
            "  L0: x := new a.B\n  L1: throw x\n  L2: x := Exception\n"
            "  L3: return\nend\n",
            "a.B.m()V",
        )
        assert ("exc", "L2") in {o.tag for o in observations}


class TestCalls:
    APP = (
        "app p\n"
        "method a.B.top()V\n"
        "  local x: Ljava/lang/Object;\n"
        "  local y: Ljava/lang/Object;\n"
        "  L0: x := new a.B\n"
        "  L1: call y := a.B.identity(Ljava/lang/Object;)Ljava/lang/Object;(x)\n"
        "  L2: call x := a.B.fresh()Ljava/lang/Object;()\n"
        "  L3: nop\n"
        "  L4: return\nend\n"
        "method a.B.identity(Ljava/lang/Object;)Ljava/lang/Object;\n"
        "  param p: Ljava/lang/Object;\n"
        "  L0: return p\nend\n"
        "method a.B.fresh()Ljava/lang/Object;\n"
        "  local n: Ljava/lang/Object;\n"
        "  L0: n := new a.N\n  L1: return n\nend\n"
    )

    def test_identity_call_preserves_caller_tag(self):
        _, observations = interpret(self.APP, "a.B.top()V")
        y_tags = {o.tag for o in observations if o.variable == "y"}
        assert ("site", "L0", "a.B") in y_tags

    def test_fresh_call_retagged_by_call_site(self):
        _, observations = interpret(self.APP, "a.B.top()V")
        x_at_l3 = {
            o.tag for o in observations if o.variable == "x" and o.node == 3
        }
        assert x_at_l3 == {("call", "L2")}

    def test_depth_limit_makes_calls_opaque(self):
        app = parse_app(self.APP)
        interpreter = ConcreteInterpreter(
            app, app.method("a.B.top()V"), max_depth=0
        )
        observations = interpreter.run()
        y_tags = {o.tag for o in observations if o.variable == "y"}
        assert y_tags == {("call", "L1")}
