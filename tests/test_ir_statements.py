"""Unit tests for the 9 statement categories and their helpers."""

from repro.ir.expressions import (
    AccessExpr,
    CallRhs,
    IndexingExpr,
    NewExpr,
    StaticFieldAccessExpr,
    VariableNameExpr,
)
from repro.ir.statements import (
    AssignmentStatement,
    CallStatement,
    EmptyStatement,
    GotoStatement,
    IfStatement,
    MonitorStatement,
    ReturnStatement,
    STATEMENT_KINDS,
    SwitchStatement,
    ThrowStatement,
    branch_class,
    callee_of,
    heap_store_kind,
    is_call,
    may_throw,
)


def test_exactly_nine_statement_kinds():
    assert len(STATEMENT_KINDS) == 9
    assert len(set(STATEMENT_KINDS)) == 9


class TestControlFlow:
    def test_goto_never_falls_through(self):
        stmt = GotoStatement(label="L0", target="L5")
        assert not stmt.falls_through
        assert stmt.jump_targets() == ("L5",)

    def test_if_falls_through_and_jumps(self):
        stmt = IfStatement(label="L0", condition="c", target="L9")
        assert stmt.falls_through
        assert stmt.jump_targets() == ("L9",)
        assert stmt.uses() == ("c",)

    def test_return_terminates(self):
        assert not ReturnStatement(label="L0").falls_through
        assert ReturnStatement(label="L0", operand="v").uses() == ("v",)

    def test_throw_terminates(self):
        assert not ThrowStatement(label="L0", operand="e").falls_through

    def test_switch_with_default_never_falls_through(self):
        stmt = SwitchStatement(
            label="L0", operand="v", cases=((0, "L1"), (1, "L2")), default="L3"
        )
        assert not stmt.falls_through
        assert stmt.jump_targets() == ("L1", "L2", "L3")

    def test_switch_without_default_falls_through(self):
        stmt = SwitchStatement(label="L0", operand="v", cases=((0, "L1"),), default="")
        assert stmt.falls_through


class TestBranchClass:
    def test_non_assignment_uses_statement_kind(self):
        assert branch_class(EmptyStatement(label="L0")) == "EmptyStatement"
        assert branch_class(GotoStatement(label="L0", target="L0")) == "GoToStatement"

    def test_assignment_uses_expression_kind(self):
        stmt = AssignmentStatement(label="L0", lhs="x", rhs=NewExpr())
        assert branch_class(stmt) == "NewExpr"

    def test_total_class_count_is_25(self):
        from repro.core.grouping import BRANCH_CLASSES

        assert len(BRANCH_CLASSES) == 25


class TestHeapStores:
    def test_field_store(self):
        stmt = AssignmentStatement(
            label="L0",
            lhs="o",
            rhs=VariableNameExpr(name="v"),
            lhs_access=AccessExpr(base="o", field_name="f"),
        )
        assert stmt.is_heap_store
        assert heap_store_kind(stmt) == "field"
        assert stmt.defines() is None
        assert "o" in stmt.uses() and "v" in stmt.uses()

    def test_array_store(self):
        stmt = AssignmentStatement(
            label="L0",
            lhs="a",
            rhs=VariableNameExpr(name="v"),
            lhs_access=IndexingExpr(base="a", index="i"),
        )
        assert heap_store_kind(stmt) == "array"

    def test_static_store(self):
        stmt = AssignmentStatement(
            label="L0",
            lhs="G.f",
            rhs=VariableNameExpr(name="v"),
            lhs_access=StaticFieldAccessExpr(owner="G", field_name="f"),
        )
        assert heap_store_kind(stmt) == "static"

    def test_plain_assignment_is_not_a_store(self):
        stmt = AssignmentStatement(label="L0", lhs="x", rhs=NewExpr())
        assert heap_store_kind(stmt) is None
        assert stmt.defines() == "x"


class TestCalls:
    def test_call_statement(self):
        stmt = CallStatement(label="L0", callee="a.B.m()V", args=("x",), result="r")
        assert is_call(stmt)
        assert callee_of(stmt) == "a.B.m()V"
        assert stmt.defines() == "r"

    def test_call_rhs_assignment(self):
        stmt = AssignmentStatement(
            label="L0", lhs="r", rhs=CallRhs(callee="a.B.m()V", args=())
        )
        assert is_call(stmt)
        assert callee_of(stmt) == "a.B.m()V"

    def test_non_call(self):
        stmt = EmptyStatement(label="L0")
        assert not is_call(stmt)
        assert callee_of(stmt) is None


class TestMayThrow:
    def test_throwing_statements(self):
        assert may_throw(ThrowStatement(label="L0", operand="e"))
        assert may_throw(CallStatement(label="L0", callee="x", args=()))
        assert may_throw(MonitorStatement(label="L0", enter=True, operand="o"))
        assert may_throw(
            AssignmentStatement(label="L0", lhs="x", rhs=NewExpr())
        )
        assert may_throw(
            AssignmentStatement(
                label="L0", lhs="x", rhs=AccessExpr(base="o", field_name="f")
            )
        )
        assert may_throw(
            AssignmentStatement(
                label="L0",
                lhs="o",
                rhs=VariableNameExpr(name="v"),
                lhs_access=AccessExpr(base="o", field_name="f"),
            )
        )

    def test_safe_statements(self):
        assert not may_throw(EmptyStatement(label="L0"))
        assert not may_throw(GotoStatement(label="L0", target="L0"))
        assert not may_throw(
            AssignmentStatement(label="L0", lhs="x", rhs=VariableNameExpr(name="y"))
        )
        assert not may_throw(ReturnStatement(label="L0"))
