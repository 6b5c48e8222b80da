"""Unit tests for Method construction and validation."""

import pytest

from repro.ir.method import ExceptionHandler, Method, MethodSignature, Parameter
from repro.ir.statements import (
    EmptyStatement,
    GotoStatement,
    ReturnStatement,
)
from repro.ir.types import INT, OBJECT, VOID


def sig(name="m"):
    return MethodSignature(owner="a.B", name=name)


def test_signature_string():
    s = MethodSignature("a.B", "m", (OBJECT, INT), VOID)
    assert str(s) == "a.B.m(Ljava/lang/Object;I)V"
    assert s.qualified_name == "a.B.m"


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError, match="duplicate label"):
        Method(sig(), statements=[
            EmptyStatement(label="L0"),
            EmptyStatement(label="L0"),
        ])


def test_unknown_jump_target_rejected():
    with pytest.raises(ValueError, match="jump target"):
        Method(sig(), statements=[GotoStatement(label="L0", target="L9")])


def test_handler_labels_validated():
    body = [EmptyStatement(label="L0"), ReturnStatement(label="L1")]
    with pytest.raises(ValueError, match="unknown"):
        Method(sig(), statements=body,
               handlers=[ExceptionHandler(start="L0", end="L1", handler="L9")])


def test_inverted_handler_range_rejected():
    body = [EmptyStatement(label="L0"), EmptyStatement(label="L1"),
            ReturnStatement(label="L2")]
    with pytest.raises(ValueError, match="inverted"):
        Method(sig(), statements=body,
               handlers=[ExceptionHandler(start="L1", end="L0", handler="L2")])


def test_index_and_statement_lookup():
    body = [EmptyStatement(label="La"), ReturnStatement(label="Lb")]
    method = Method(sig(), statements=body)
    assert method.index_of("Lb") == 1
    assert method.statement_at("La") is body[0]
    assert len(method) == 2
    assert method.entry is body[0]


def test_empty_method_has_no_entry():
    assert Method(sig()).entry is None


def test_variable_queries():
    method = Method(
        sig(),
        parameters=[Parameter("p", OBJECT), Parameter("n", INT)],
        locals=[Parameter("x", OBJECT)],
        statements=[ReturnStatement(label="L0")],
    )
    assert method.variable_names() == ("p", "n", "x")
    assert method.object_variables() == ("p", "x")


def test_callees_collected_in_order(demo_app):
    main = demo_app.method(
        "com.demo.Main.onCreate(Landroid/content/Intent;)V"
    )
    assert main.callees() == [
        "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
    ]
    assert main.has_calls


def test_iteration_yields_statements_in_order():
    body = [EmptyStatement(label=f"L{i}") for i in range(5)]
    method = Method(sig(), statements=body)
    assert list(method) == body
