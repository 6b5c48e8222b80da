"""Parser/printer round-trip tests, including property-based coverage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apk.generator import AppGenerator
from repro.ir.parser import (
    IRSyntaxError,
    parse_app,
    parse_expression,
    parse_signature,
    parse_statement,
)
from repro.ir.printer import print_app
from tests.conftest import DEMO_APP_SOURCE, TINY_PROFILE


class TestExpressionParsing:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("null", "NullExpr"),
            ("Exception", "ExceptionExpr"),
            ("new a.B", "NewExpr"),
            ("constclass a.B", "ConstClassExpr"),
            ('"hi"', "LiteralExpr"),
            ("42", "LiteralExpr"),
            ("3.25", "LiteralExpr"),
            ("true", "LiteralExpr"),
            ("(Ljava/lang/Object;) x", "CastExpr"),
            ("(a, b)", "TupleExpr"),
            ("cmpl(a, b)", "CmpExpr"),
            ("length(a)", "LengthExpr"),
            ("x instanceof Ljava/lang/Object;", "InstanceOfExpr"),
            ("@@a.B.g", "StaticFieldAccessExpr"),
            ("a[i]", "IndexingExpr"),
            ("o.f", "AccessExpr"),
            ("a + b", "BinaryExpr"),
            ("-x", "UnaryExpr"),
            ("x", "VariableNameExpr"),
            ("call a.B.m(I)V(x)", "CallRhs"),
        ],
    )
    def test_kinds(self, text, kind):
        assert parse_expression(text).kind == kind

    def test_expression_text_round_trip(self):
        for text in ("o.f", "a[i]", "@@a.B.g", "new a.B", "length(v)",
                     "cmp(a, b)", "(x, y)", "a >> b"):
            expr = parse_expression(text)
            assert parse_expression(expr.text()) == expr

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_expression("@@@nope!!")


class TestStatementParsing:
    @pytest.mark.parametrize(
        "text,kind",
        [
            ("nop", "EmptyStatement"),
            ("return", "ReturnStatement"),
            ("return v", "ReturnStatement"),
            ("throw e", "ThrowStatement"),
            ("monitorenter o", "MonitorStatement"),
            ("monitorexit o", "MonitorStatement"),
            ("goto L4", "GoToStatement"),
            ("if c then goto L4", "IfStatement"),
            ("switch v { case 0: goto L1; default: goto L2 }", "SwitchStatement"),
            ("call a.B.m()V()", "CallStatement"),
            ("call r := a.B.m()Ljava/lang/Object;(x)", "CallStatement"),
            ("x := new a.B", "AssignmentStatement"),
            ("x.f := y", "AssignmentStatement"),
            ("x[i] := y", "AssignmentStatement"),
            ("@@a.G.g := y", "AssignmentStatement"),
        ],
    )
    def test_kinds(self, text, kind):
        assert parse_statement("L0", text).kind == kind

    def test_statement_text_round_trip(self):
        for text in (
            "nop",
            "x := o.f",
            "x.f := y",
            "@@a.G.g := y",
            "switch v { case 0: goto L0; case 3: goto L0; default: goto L0 }",
            "call r := a.B.m(II)I(p, q)",
        ):
            stmt = parse_statement("L0", text)
            assert parse_statement("L0", stmt.text()) == stmt


class TestSignatureParsing:
    def test_simple(self):
        s = parse_signature("a.B.m(I)V")
        assert s.owner == "a.B" and s.name == "m"
        assert str(s) == "a.B.m(I)V"

    def test_object_params(self):
        s = parse_signature("x.Y.n(Ljava/lang/String;[I)Ljava/lang/Object;")
        assert len(s.param_types) == 2
        assert str(s) == "x.Y.n(Ljava/lang/String;[I)Ljava/lang/Object;"

    def test_malformed(self):
        with pytest.raises(ValueError):
            parse_signature("not-a-signature")


class TestAppRoundTrip:
    def test_demo_app(self):
        text = print_app(parse_app(DEMO_APP_SOURCE))
        assert print_app(parse_app(text)) == text

    def test_missing_header(self):
        with pytest.raises(IRSyntaxError, match="app"):
            parse_app("method a.B.m()V\nend\n")

    def test_error_carries_line_number(self):
        bad = "app p\nmethod a.B.m()V\n  L0: ?!garbage\nend\n"
        with pytest.raises(IRSyntaxError) as excinfo:
            parse_app(bad)
        assert excinfo.value.line_number == 3

    def test_unterminated_method(self):
        with pytest.raises(IRSyntaxError, match="unterminated"):
            parse_app("app p\nmethod a.B.m()V\n  L0: nop\n")

    def test_catch_clause_round_trip(self):
        source = (
            "app p\n"
            "method a.B.m()V\n"
            "  local o: Ljava/lang/Object;\n"
            "  catch L2 from L0 to L1\n"
            "  L0: o := new a.B\n"
            "  L1: nop\n"
            "  L2: o := Exception\n"
            "  L3: return\n"
            "end\n"
        )
        app = parse_app(source)
        method = app.method("a.B.m()V")
        assert len(method.handlers) == 1
        assert print_app(parse_app(print_app(app))) == print_app(app)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generated_apps_round_trip(seed):
    """Property: every generator output survives print -> parse -> print."""
    app = AppGenerator(TINY_PROFILE).generate(seed)
    text = print_app(app)
    assert print_app(parse_app(text)) == text
