"""GRP classification and storage-layout tests."""

from repro.core.grouping import (
    ACCESS_GROUP_NAMES,
    BRANCH_CLASSES,
    GROUP_DOUBLE_LAYER,
    GROUP_ONE_TIME,
    GROUP_SINGLE_LAYER,
    access_group,
    branch_class_id,
    grouped_storage_order,
)
from repro.dataflow.facts import FactSpace
from repro.dataflow.transfer import TransferFunctions
from repro.ir.parser import parse_app


def test_twenty_five_branch_classes():
    assert len(BRANCH_CLASSES) == 25
    assert len(set(BRANCH_CLASSES)) == 25


def test_three_group_names():
    assert len(ACCESS_GROUP_NAMES) == 3


def groups_for(body: str):
    app = parse_app(
        "app p\nmethod a.B.m()V\n"
        "  local x: Ljava/lang/Object;\n  local y: Ljava/lang/Object;\n"
        f"{body}end\n"
    )
    method = app.method("a.B.m()V")
    transfer = TransferFunctions(FactSpace(method))
    return [
        access_group(transfer, node) for node in range(len(method.statements))
    ], method


def test_paper_examples_classify_as_documented():
    """Section IV-B's examples: ConstClass/Null/Literal are one-time,
    VariableName/StaticFieldAccess single-layer, Access/Indexing
    double-layer."""
    groups, _ = groups_for(
        "  L0: x := null\n"
        '  L1: x := "s"\n'
        "  L2: x := constclass a.B\n"
        "  L3: x := y\n"
        "  L4: x := @@p.G.g\n"
        "  L5: x := y.f\n"
        "  L6: x := y[i]\n"
        "  L7: return\n"
    )
    assert groups[0] == groups[1] == groups[2] == GROUP_ONE_TIME
    assert groups[3] == groups[4] == GROUP_SINGLE_LAYER
    assert groups[5] == groups[6] == GROUP_DOUBLE_LAYER


def test_branch_class_ids_stable_and_in_range():
    groups, method = groups_for("  L0: x := null\n  L1: return\n")
    for statement in method.statements:
        assert 0 <= branch_class_id(statement) < 25


class TestStorageOrder:
    def test_groups_stored_contiguously(self):
        groups = [2, 0, 1, 0, 2, 1]
        position = grouped_storage_order(groups)
        # All group-0 nodes first, then group-1, then group-2; original
        # order preserved within a group.
        assert position == [4, 0, 2, 1, 5, 3]

    def test_permutation(self):
        groups = [1, 1, 0, 2, 0]
        position = grouped_storage_order(groups)
        assert sorted(position) == list(range(5))

    def test_empty(self):
        assert grouped_storage_order([]) == []
