"""Dominator tree and natural-loop tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.dominators import DominatorTree, loop_nesting_depth, natural_loops
from repro.cfg.intra import build_intra_cfg
from repro.ir.parser import parse_app
from tests.conftest import tiny_app


def cfg_of(body: str, extra: str = ""):
    app = parse_app(f"app p\nmethod a.B.m()V\n{extra}{body}end\n")
    return build_intra_cfg(app.method("a.B.m()V"))


class TestDominatorTree:
    def test_straight_line(self):
        cfg = cfg_of("  L0: nop\n  L1: nop\n  L2: return\n")
        tree = DominatorTree(cfg)
        assert tree.idom == {0: 0, 1: 0, 2: 1}
        assert tree.dominates(0, 2)
        assert not tree.dominates(2, 0)

    def test_diamond_join_dominated_by_branch(self):
        cfg = cfg_of(
            "  local c: I\n"
            "  L0: if c then goto L2\n"
            "  L1: goto L3\n"
            "  L2: nop\n"
            "  L3: return\n"
        )
        tree = DominatorTree(cfg)
        assert tree.idom[3] == 0  # neither arm dominates the join
        assert tree.dominates(0, 3)
        assert not tree.dominates(1, 3)
        assert not tree.dominates(2, 3)

    def test_dominator_chain_ends_at_entry(self):
        cfg = cfg_of("  L0: nop\n  L1: nop\n  L2: return\n")
        tree = DominatorTree(cfg)
        assert tree.dominators_of(2) == (2, 1, 0)

    def test_unreachable_nodes_excluded(self):
        cfg = cfg_of("  L0: goto L2\n  L1: nop\n  L2: return\n")
        tree = DominatorTree(cfg)
        assert 1 not in tree.idom
        assert not tree.dominates(0, 1)


class TestNaturalLoops:
    def test_simple_loop(self):
        cfg = cfg_of(
            "  local c: I\n"
            "  L0: nop\n"
            "  L1: nop\n"
            "  L2: if c then goto L1\n"
            "  L3: return\n"
        )
        loops = natural_loops(cfg)
        assert len(loops) == 1
        assert loops[0].header == 1
        assert loops[0].body == frozenset({1, 2})

    def test_nested_loops(self):
        cfg = cfg_of(
            "  local c: I\n"
            "  L0: nop\n"
            "  L1: nop\n"
            "  L2: if c then goto L1\n"
            "  L3: if c then goto L0\n"
            "  L4: return\n"
        )
        depth = loop_nesting_depth(cfg)
        assert depth[1] == 2 and depth[2] == 2  # inner body
        assert depth[0] == 1 and depth[3] == 1  # outer only
        assert depth[4] == 0

    def test_acyclic_has_no_loops(self):
        cfg = cfg_of("  L0: nop\n  L1: return\n")
        assert natural_loops(cfg) == []


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=300))
def test_dominance_properties_on_random_methods(seed):
    """Entry dominates everything reachable; idom is a strict
    dominator; loop headers dominate their bodies."""
    app = tiny_app(seed)
    method = max(app.methods, key=len)
    cfg = build_intra_cfg(method)
    tree = DominatorTree(cfg)
    reachable = set(cfg.reachable_nodes())
    for node in reachable:
        assert tree.dominates(cfg.entry, node)
        if node != cfg.entry:
            assert tree.dominates(tree.idom[node], node)
            assert tree.idom[node] != node
    for loop in natural_loops(cfg):
        for node in loop.body:
            if node in reachable:
                assert tree.dominates(loop.header, node)
