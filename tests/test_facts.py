"""Unit tests for the pre-determined slot/instance pools."""

from repro.dataflow.facts import ARRAY_FIELD, CalleeFootprint, FactSpace
from repro.ir.parser import parse_app


def space_for(body: str, params: str = "", footprints=None):
    from repro.ir.parser import _split_descriptors

    declares = "".join(
        f"  param a{i}: {d}\n"
        for i, d in enumerate(_split_descriptors(params))
    )
    app = parse_app(f"app p\nmethod a.B.m({params})V\n{declares}{body}end\n")
    return FactSpace(app.method(f"a.B.m({params})V"), footprints)


def test_allocation_sites_pooled():
    space = space_for(
        "  local x: Ljava/lang/Object;\n"
        "  L0: x := new a.B\n  L1: x := new a.C\n  L2: return\n"
    )
    assert space.site_instance("L0") != space.site_instance("L1")
    assert space.instances[space.site_instance("L0")] == ("site", "L0", "a.B")


def test_constants_pooled_once():
    space = space_for(
        "  local x: Ljava/lang/Object;\n"
        '  L0: x := "a"\n  L1: x := "b"\n  L2: x := null\n  L3: return\n'
    )
    assert space.const_instance("str") is not None
    assert space.null_instance() is not None
    # One shared pool entry per constant tag, not per occurrence.
    assert sum(1 for i in space.instances if i[0] == "const") == 1


def test_param_instances_only_for_objects():
    space = space_for("  L0: return\n", params="Ljava/lang/Object;I")
    assert space.param_instance(0) is not None
    assert space.param_instance(1) is None


def test_heap_slots_for_stored_fields():
    space = space_for(
        "  local x: Ljava/lang/Object;\n  local y: Ljava/lang/Object;\n"
        "  L0: x := new a.B\n  L1: x.f := y\n  L2: y := x.g\n  L3: return\n"
    )
    assert set(space.fields) == {"f", "g"}
    site = space.site_instance("L0")
    # f is stored somewhere, so the site has a cell for it; g is only
    # ever read, and an unwritten cell always reads empty -- omitted.
    assert space.heap_slot(site, "f") is not None
    assert space.heap_slot(site, "g") is None


def test_param_instances_keep_cells_for_all_fields():
    space = space_for(
        "  local y: Ljava/lang/Object;\n"
        "  L0: y := a0.g\n  L1: a0.f := y\n  L2: return\n",
        params="Ljava/lang/Object;",
    )
    param = space.param_instance(0)
    # Reads of parameter fields need their symbolic seeds.
    assert space.heap_slot(param, "g") is not None
    assert space.heap_slot(param, "f") is not None


def test_array_cells_use_pseudo_field():
    space = space_for(
        "  local a: [Ljava/lang/Object;\n  local i: I\n"
        "  local x: Ljava/lang/Object;\n"
        "  L0: x := a[i]\n  L1: return\n"
    )
    assert ARRAY_FIELD in space.fields


def test_globals_pooled_from_statements():
    space = space_for(
        "  local x: Ljava/lang/Object;\n"
        "  L0: x := @@p.G.g\n  L1: @@p.G.h := x\n  L2: return\n"
    )
    assert set(space.globals) == {"p.G.g", "p.G.h"}
    assert space.global_instance("p.G.g") is not None


def test_callee_footprint_extends_pools():
    footprint = CalleeFootprint(
        globals_touched=frozenset({"p.G.ext"}),
        fields_written=frozenset({"fOut"}),
        returns_value=True,
    )
    space = space_for(
        "  local x: Ljava/lang/Object;\n"
        "  L0: call x := a.B.callee()Ljava/lang/Object;(x)\n  L1: return\n",
        footprints={"a.B.callee()Ljava/lang/Object;": footprint},
    )
    assert "p.G.ext" in space.globals
    assert "fOut" in space.fields
    assert space.call_instance("L0") is not None


def test_encode_decode_inverse():
    space = space_for(
        "  local x: Ljava/lang/Object;\n  L0: x := new a.B\n  L1: return\n"
    )
    for slot in range(space.slot_count):
        for instance in range(space.instance_count):
            assert space.decode(space.encode(slot, instance)) == (slot, instance)


def test_entry_facts_seed_params_globals_and_pfields():
    space = space_for(
        "  local y: Ljava/lang/Object;\n"
        "  L0: y := a0.f\n  L1: y := @@p.G.g\n  L2: return\n",
        params="Ljava/lang/Object;",
    )
    entry = {space.decode_named(f) for f in space.entry_facts()}
    assert (("var", "a0"), ("param", 0)) in entry
    assert (("global", "p.G.g"), ("global", "p.G.g")) in entry
    param_instance = space.param_instance(0)
    assert (
        space.slots[space.heap_slot(param_instance, "f")],
        ("pfield", 0, "f"),
    ) in entry


def test_pools_deterministic():
    build = lambda: space_for(
        "  local x: Ljava/lang/Object;\n"
        "  L0: x := new a.B\n  L1: x.f := x\n  L2: return\n"
    )
    a, b = build(), build()
    assert a.instances == b.instances
    assert a.slots == b.slots
