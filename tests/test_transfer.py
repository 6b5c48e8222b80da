"""Transfer-function semantics per statement kind, plus monotonicity."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.facts import FactSpace
from repro.dataflow.summaries import MethodSummary
from repro.dataflow.transfer import TransferFunctions
from repro.ir.parser import parse_app


def compiled(body: str, params: str = "", summaries=None):
    from repro.ir.parser import _split_descriptors

    declares = "".join(
        f"  param a{i}: {d}\n"
        for i, d in enumerate(_split_descriptors(params))
    )
    app = parse_app(f"app p\nmethod a.B.m({params})V\n{declares}{body}end\n")
    method = app.method(f"a.B.m({params})V")
    footprints = (
        {sig: s.footprint() for sig, s in summaries.items()}
        if summaries
        else None
    )
    space = FactSpace(method, footprints)
    return space, TransferFunctions(space, summaries)


def named(space, facts):
    return {space.decode_named(f) for f in facts}


LOCALS = "  local x: Ljava/lang/Object;\n  local y: Ljava/lang/Object;\n"


class TestAssignments:
    def test_new_generates_site_and_kills_old(self):
        space, transfer = compiled(
            LOCALS + "  L0: x := new a.B\n  L1: x := new a.C\n  L2: return\n"
        )
        out0 = transfer.out_facts(0, set())
        assert named(space, out0) == {(("var", "x"), ("site", "L0", "a.B"))}
        out1 = transfer.out_facts(1, out0)
        assert named(space, out1) == {(("var", "x"), ("site", "L1", "a.C"))}

    def test_copy_propagates(self):
        space, transfer = compiled(
            LOCALS + "  L0: y := new a.B\n  L1: x := y\n  L2: return\n"
        )
        out = transfer.out_facts(1, transfer.out_facts(0, set()))
        assert (("var", "x"), ("site", "L0", "a.B")) in named(space, out)

    def test_field_store_then_load(self):
        space, transfer = compiled(
            LOCALS
            + "  L0: x := new a.B\n  L1: y := new a.C\n"
            + "  L2: x.f := y\n  L3: y := x.f\n  L4: return\n"
        )
        facts = set()
        for node in range(4):
            facts = transfer.out_facts(node, facts)
        assert (("var", "y"), ("site", "L1", "a.C")) in named(space, facts)

    def test_heap_store_is_weak(self):
        space, transfer = compiled(
            LOCALS
            + "  L0: x := new a.B\n  L1: x.f := x\n  L2: x.f := y\n  L3: return\n"
        )
        facts = set()
        for node in range(3):
            facts = transfer.out_facts(node, facts)
        site = space.site_instance("L0")
        heap = space.heap_slot(site, "f")
        base = heap * space.instance_count
        held = {f - base for f in facts if base <= f < base + space.instance_count}
        assert site in held  # the first write survived the second

    def test_static_store_is_strong(self):
        space, transfer = compiled(
            LOCALS
            + "  L0: x := @@p.G.g\n  L1: @@p.G.g := y\n  L2: x := @@p.G.g\n  L3: return\n"
        )
        entry = set(space.entry_facts())
        after_store = transfer.out_facts(1, entry)
        g_slot = space.global_slot("p.G.g")
        base = g_slot * space.instance_count
        held = {f for f in after_store if base <= f < base + space.instance_count}
        # The symbolic entry value was strongly killed; y holds nothing,
        # so the global is now empty.
        assert not held

    def test_identity_statements(self):
        space, transfer = compiled(LOCALS + "  L0: nop\n  L1: return\n")
        facts = {1, 2, 3}
        assert transfer.out_facts(0, facts) == facts
        assert transfer.plans[0].is_identity

    def test_primitive_assignment_is_identity(self):
        space, transfer = compiled(
            LOCALS + "  local i: I\n  L0: i := i + i\n  L1: return\n"
        )
        assert transfer.plans[0].is_identity

    def test_return_fills_return_slot(self):
        app = parse_app(
            "app p\nmethod a.B.m()Ljava/lang/Object;\n"
            "  local x: Ljava/lang/Object;\n"
            "  L0: x := new a.B\n  L1: return x\nend\n"
        )
        method = app.method("a.B.m()Ljava/lang/Object;")
        space = FactSpace(method)
        transfer = TransferFunctions(space)
        out = transfer.out_facts(1, transfer.out_facts(0, set()))
        assert (("ret",), ("site", "L0", "a.B")) in named(space, out)


class TestCalls:
    CALLEE = "a.B.callee(Ljava/lang/Object;)Ljava/lang/Object;"

    def test_external_call_returns_opaque(self):
        space, transfer = compiled(
            LOCALS + f"  L0: call x := {self.CALLEE}(y)\n  L1: return\n"
        )
        out = transfer.out_facts(0, set())
        assert (("var", "x"), ("call", "L0")) in named(space, out)

    def test_summary_return_param(self):
        summary = MethodSummary(
            signature=self.CALLEE, return_params=frozenset({0})
        )
        space, transfer = compiled(
            LOCALS
            + "  L0: y := new a.B\n"
            + f"  L1: call x := {self.CALLEE}(y)\n  L2: return\n",
            summaries={self.CALLEE: summary},
        )
        facts = transfer.out_facts(1, transfer.out_facts(0, set()))
        assert (("var", "x"), ("site", "L0", "a.B")) in named(space, facts)

    def test_summary_global_write(self):
        summary = MethodSummary(
            signature=self.CALLEE,
            global_writes={"p.G.g": frozenset({("param", 0)})},
        )
        space, transfer = compiled(
            LOCALS
            + "  L0: y := new a.B\n"
            + f"  L1: call {self.CALLEE}(y)\n  L2: return\n",
            summaries={self.CALLEE: summary},
        )
        facts = transfer.out_facts(1, transfer.out_facts(0, set()))
        assert (("global", "p.G.g"), ("site", "L0", "a.B")) in named(space, facts)

    def test_summary_field_write(self):
        summary = MethodSummary(
            signature=self.CALLEE,
            field_writes={(("param", 0), "f"): frozenset({("fresh",)})},
        )
        space, transfer = compiled(
            LOCALS
            + "  L0: y := new a.B\n"
            + f"  L1: call {self.CALLEE}(y)\n"
            + "  L2: x := y.f\n  L3: return\n",
            summaries={self.CALLEE: summary},
        )
        facts = set()
        for node in range(3):
            facts = transfer.out_facts(node, facts)
        assert (("var", "x"), ("call", "L1")) in named(space, facts)

    def test_summary_return_pfield(self):
        summary = MethodSummary(
            signature=self.CALLEE, return_pfields=frozenset({(0, "f")})
        )
        space, transfer = compiled(
            LOCALS
            + "  L0: y := new a.B\n  L1: y.f := y\n"
            + f"  L2: call x := {self.CALLEE}(y)\n  L3: return\n",
            summaries={self.CALLEE: summary},
        )
        facts = set()
        for node in range(3):
            facts = transfer.out_facts(node, facts)
        # callee returned y.f, which holds the L0 site.
        assert (("var", "x"), ("site", "L0", "a.B")) in named(space, facts)

    def test_identity_summary_compiles_to_identity(self):
        callee_void = "a.B.noop()V"
        summary = MethodSummary(signature=callee_void)
        space, transfer = compiled(
            LOCALS + f"  L0: call {callee_void}()\n  L1: return\n",
            summaries={callee_void: summary},
        )
        assert transfer.plans[0].is_identity


class TestDerefDepth:
    def test_groups(self):
        space, transfer = compiled(
            LOCALS
            + "  L0: x := new a.B\n"      # const gen -> depth 0
            + "  L1: x := y\n"            # single -> depth 1
            + "  L2: x := y.f\n"          # double -> depth 2
            + "  L3: x.f := y\n"          # heap store -> depth 2
            + "  L4: nop\n"               # identity -> depth 1
            + "  L5: return\n"
        )
        assert transfer.deref_depth(0) == 0
        assert transfer.deref_depth(1) == 1
        assert transfer.deref_depth(2) == 2
        assert transfer.deref_depth(3) == 2
        assert transfer.deref_depth(4) == 1


@settings(max_examples=40, deadline=None)
@given(
    in1=st.frozensets(st.integers(min_value=0, max_value=60), max_size=12),
    extra=st.frozensets(st.integers(min_value=0, max_value=60), max_size=6),
    node=st.integers(min_value=0, max_value=4),
)
def test_transfer_is_monotone(in1, extra, node):
    """Property: IN1 <= IN2 implies OUT1 <= OUT2 for every plan.

    Monotonicity is what makes MER's postponement sound ("Fact'(4)
    inevitably is the superset of Fact(4)").
    """
    space, transfer = compiled(
        LOCALS
        + "  L0: x := new a.B\n"
        + "  L1: x := y\n"
        + "  L2: x.f := y\n"
        + "  L3: y := x.f\n"
        + "  L4: @@p.G.g := x\n"
        + "  L5: return\n"
    )
    universe = space.fact_universe
    small = {f for f in in1 if f < universe}
    big = small | {f for f in extra if f < universe}
    out_small = transfer.out_facts(node, set(small))
    out_big = transfer.out_facts(node, set(big))
    assert set(out_small) <= set(out_big)
