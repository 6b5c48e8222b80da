"""IDE copy-constant-propagation tests."""

from repro.dataflow.ide import BOTTOM, TOP, IdeConstantSolver, meet
from repro.ir.parser import parse_app
from tests.conftest import tiny_app


def solve(source: str):
    app = parse_app(source)
    solver = IdeConstantSolver(app)
    solver.solve()
    return solver


class TestLattice:
    def test_meet_table(self):
        assert meet(BOTTOM, 3) == 3
        assert meet(3, BOTTOM) == 3
        assert meet(3, 3) == 3
        assert meet(3, 4) == TOP
        assert meet(TOP, 3) == TOP
        assert meet(BOTTOM, BOTTOM) == BOTTOM


class TestIntraprocedural:
    def test_straight_line_constants(self):
        solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local i: I\n  local j: I\n"
            "  L0: i := 7\n"
            "  L1: j := i\n"
            "  L2: j := j + i\n"
            "  L3: return\nend\n"
        )
        env = solver.environment_at("a.B.m()V", "L3")
        assert env.of("i") == 7
        assert env.of("j") == 14

    def test_arithmetic_folding(self):
        solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local a: I\n  local b: I\n  local c: I\n  local two: I\n"
            "  L0: a := 6\n  L1: b := 7\n  L2: c := a * b\n"
            "  L20: two := 2\n"
            "  L3: c := c - two\n  L4: return\nend\n"
        )
        assert solver.environment_at("a.B.m()V", "L4").of("c") == 40

    def test_join_of_different_constants_is_top(self):
        solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local i: I\n  local c: I\n"
            "  L0: if c then goto L3\n"
            "  L1: i := 1\n"
            "  L2: goto L4\n"
            "  L3: i := 2\n"
            "  L4: return\nend\n"
        )
        assert solver.environment_at("a.B.m()V", "L4").of("i") == TOP

    def test_join_of_equal_constants_stays_constant(self):
        solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local i: I\n  local c: I\n"
            "  L0: if c then goto L3\n"
            "  L1: i := 5\n"
            "  L2: goto L4\n"
            "  L3: i := 5\n"
            "  L4: return\nend\n"
        )
        assert solver.environment_at("a.B.m()V", "L4").of("i") == 5

    def test_loop_increment_goes_top(self):
        solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local i: I\n  local one: I\n  local c: I\n"
            "  L0: i := 0\n"
            "  L1: one := 1\n"
            "  L2: i := i + one\n"
            "  L3: if c then goto L2\n"
            "  L4: return\nend\n"
        )
        assert solver.environment_at("a.B.m()V", "L4").of("i") == TOP

    def test_unknown_expression_is_top(self):
        solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local i: I\n  local x: Ljava/lang/Object;\n"
            "  L0: i := length(x)\n  L1: return\nend\n"
        )
        assert solver.environment_at("a.B.m()V", "L1").of("i") == TOP


class TestInterprocedural:
    def test_constant_through_parameter(self):
        solver = solve(
            "app p\n"
            "method a.B.use(I)V\n"
            "  param k: I\n  local j: I\n"
            "  L0: j := k\n  L1: return\nend\n"
            "method a.B.top()V\n"
            "  local i: I\n"
            "  L0: i := 9\n"
            "  L1: call a.B.use(I)V(i)\n"
            "  L2: return\nend\n"
        )
        assert solver.environment_at("a.B.use(I)V", "L1").of("j") == 9

    def test_conflicting_call_sites_meet_to_top(self):
        solver = solve(
            "app p\n"
            "method a.B.use(I)V\n"
            "  param k: I\n"
            "  L0: nop\n  L1: return\nend\n"
            "method a.B.top()V\n"
            "  local i: I\n  local j: I\n"
            "  L0: i := 1\n  L1: j := 2\n"
            "  L2: call a.B.use(I)V(i)\n"
            "  L3: call a.B.use(I)V(j)\n"
            "  L4: return\nend\n"
        )
        assert solver.environment_at("a.B.use(I)V", "L1").of("k") == TOP

    def test_constant_return_value(self):
        solver = solve(
            "app p\n"
            "method a.B.answer()I\n"
            "  local r: I\n"
            "  L0: r := 42\n  L1: return r\nend\n"
            "method a.B.top()V\n"
            "  local v: I\n  local w: I\n"
            "  L0: call v := a.B.answer()I()\n"
            "  L1: w := v\n"
            "  L2: return\nend\n"
        )
        assert solver.environment_at("a.B.top()V", "L2").of("w") == 42


class TestClients:
    def test_constant_conditions_detected(self):
        solver = solve(
            "app p\nmethod a.B.m()V\n"
            "  local c: I\n"
            "  L0: c := 0\n"
            "  L1: if c then goto L3\n"
            "  L2: nop\n"
            "  L3: return\nend\n"
        )
        assert ("a.B.m()V", "L1", 0) in solver.constant_conditions()

    def test_runs_on_generated_apps(self):
        app = tiny_app(4)
        solver = IdeConstantSolver(app)
        solver.solve()
        # Sanity: the solver terminates and produces environments for
        # reached nodes without claiming everything constant.
        assert solver.environments
        total = sum(
            1
            for env in solver.environments.values()
            for value in env.values()
            if value == TOP
        )
        assert total > 0
