"""Unit tests for SBDA summary extraction."""

from repro.dataflow.summaries import (
    MethodSummary,
    SummaryBuilder,
    classify_instance,
    external_summary,
)
from repro.dataflow.worklist import SequentialWorklist
from repro.ir.parser import parse_app


def summary_of(method_source: str, signature: str, summaries=None):
    app = parse_app(f"app p\n{method_source}")
    result = SequentialWorklist(app.method(signature), summaries).run()
    return SummaryBuilder(result.space).build(result.exit_facts)


class TestClassify:
    def test_param(self):
        assert classify_instance(("param", 2)) == ("param", 2)

    def test_global(self):
        assert classify_instance(("global", "g")) == ("global", "g")

    def test_pfield(self):
        assert classify_instance(("pfield", 0, "f")) == ("pfield", 0, "f")

    def test_everything_else_is_fresh(self):
        for instance in (("site", "L0", "a.B"), ("null",), ("const", "str"),
                         ("call", "L3"), ("exc", "L1"), ("class", "a.B")):
            assert classify_instance(instance) == ("fresh",)


class TestExtraction:
    def test_returns_fresh(self):
        summary = summary_of(
            "method a.B.m()Ljava/lang/Object;\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := new a.B\n  L1: return x\nend\n",
            "a.B.m()Ljava/lang/Object;",
        )
        assert summary.returns_fresh
        assert not summary.return_params

    def test_returns_param(self):
        summary = summary_of(
            "method a.B.m(Ljava/lang/Object;)Ljava/lang/Object;\n"
            "  param p: Ljava/lang/Object;\n"
            "  L0: return p\nend\n",
            "a.B.m(Ljava/lang/Object;)Ljava/lang/Object;",
        )
        assert summary.return_params == frozenset({0})
        assert not summary.returns_fresh

    def test_returns_param_field(self):
        summary = summary_of(
            "method a.B.m(Ljava/lang/Object;)Ljava/lang/Object;\n"
            "  param p: Ljava/lang/Object;\n"
            "  local r: Ljava/lang/Object;\n"
            "  L0: r := p.f\n  L1: return r\nend\n",
            "a.B.m(Ljava/lang/Object;)Ljava/lang/Object;",
        )
        assert summary.return_pfields == frozenset({(0, "f")})

    def test_global_write_recorded(self):
        summary = summary_of(
            "method a.B.m(Ljava/lang/Object;)V\n"
            "  param p: Ljava/lang/Object;\n"
            "  L0: @@p.G.g := p\n  L1: return\nend\n",
            "a.B.m(Ljava/lang/Object;)V",
        )
        assert summary.global_writes == {"p.G.g": frozenset({("param", 0)})}

    def test_unchanged_global_is_not_an_effect(self):
        summary = summary_of(
            "method a.B.m()V\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := @@p.G.g\n  L1: return\nend\n",
            "a.B.m()V",
        )
        assert not summary.global_writes
        assert "p.G.g" in summary.globals_read

    def test_param_field_write_recorded(self):
        summary = summary_of(
            "method a.B.m(Ljava/lang/Object;)V\n"
            "  param p: Ljava/lang/Object;\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := new a.B\n  L1: p.f := x\n  L2: return\nend\n",
            "a.B.m(Ljava/lang/Object;)V",
        )
        assert summary.field_writes == {
            (("param", 0), "f"): frozenset({("fresh",)})
        }

    def test_unescaped_writes_summarized_away(self):
        summary = summary_of(
            "method a.B.m()V\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := new a.B\n  L1: x.f := x\n  L2: return\nend\n",
            "a.B.m()V",
        )
        assert not summary.field_writes

    def test_identity_pfield_not_an_effect(self):
        # p.f := p.f is a no-op from the caller's perspective.
        summary = summary_of(
            "method a.B.m(Ljava/lang/Object;)V\n"
            "  param p: Ljava/lang/Object;\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := p.f\n  L1: p.f := x\n  L2: return\nend\n",
            "a.B.m(Ljava/lang/Object;)V",
        )
        assert not summary.field_writes


class TestFootprint:
    def test_identity(self):
        assert MethodSummary(signature="s").is_identity()
        assert not external_summary("s").is_identity()

    def test_footprint_collects_globals_and_fields(self):
        summary = MethodSummary(
            signature="s",
            global_writes={"g1": frozenset({("global", "g2")})},
            field_writes={(("param", 0), "f"): frozenset({("pfield", 1, "h")})},
            return_pfields=frozenset({(0, "k")}),
            globals_read=frozenset({"g3"}),
        )
        footprint = summary.footprint()
        assert footprint.globals_touched == frozenset({"g1", "g2", "g3"})
        assert footprint.fields_written == frozenset({"f", "h", "k"})
        assert footprint.returns_value


class TestExternal:
    def test_external_returns_fresh_only(self):
        summary = external_summary("lib.M.x()V")
        assert summary.returns_fresh
        assert not summary.global_writes
        assert not summary.field_writes
