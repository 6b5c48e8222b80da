"""Block-partitioning and SBDA-scheduling tests."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.core.blocks import block_count, partition_layers
from repro.core.config import TuningParameters
from repro.ir.parser import parse_app
from tests.conftest import tiny_app


def partition_for(app, methods_per_block=4):
    analyzed = app_with_environments(app) if app.components else app
    layering = SBDALayering(CallGraph(analyzed))
    return (
        analyzed,
        layering,
        partition_layers(
            analyzed, layering, TuningParameters(methods_per_block=methods_per_block)
        ),
    )


class TestPartitionInvariants:
    def test_block_count_matches_target_average(self, demo_app):
        analyzed, layering, partition = partition_for(demo_app, 2)
        for layer_index, blocks in enumerate(partition):
            methods = sum(len(s) for s in layering.layers[layer_index])
            if methods:
                assert len(blocks) == min(
                    len(layering.layers[layer_index]), -(-methods // 2)
                )

    def test_blocks_only_contain_same_layer_methods(self):
        app = tiny_app(21)
        analyzed, layering, partition = partition_for(app)
        for layer_index, blocks in enumerate(partition):
            for block in blocks:
                for signature in block.methods:
                    assert layering.layer_of(signature) == layer_index
                assert block.layer == layer_index

    def test_sccs_stay_together(self):
        app = parse_app(
            "app p\n"
            "method a.B.f()V\n  L0: call a.B.g()V()\n  L1: return\nend\n"
            "method a.B.g()V\n  L0: call a.B.f()V()\n  L1: return\nend\n"
            "method a.B.solo()V\n  L0: return\nend\n"
        )
        _, _, partition = partition_for(app, methods_per_block=1)
        scc_blocks = [
            block
            for layer in partition
            for block in layer
            if "a.B.f()V" in block.methods
        ]
        assert scc_blocks and "a.B.g()V" in scc_blocks[0].methods

    def test_block_ids_globally_unique(self):
        app = tiny_app(22)
        _, _, partition = partition_for(app)
        ids = [block.block_id for layer in partition for block in layer]
        assert len(ids) == len(set(ids))
        assert block_count(partition) == len(ids)

    def test_lpt_balances_statement_load(self):
        # Ten 10-statement methods into 5 blocks: 2 each, never 3+1 of
        # equal-size items.
        body = "".join(f"  L{i}: nop\n" for i in range(9)) + "  L9: return\n"
        methods = "".join(
            f"method a.B.m{k}()V\n{body}end\n" for k in range(10)
        )
        app = parse_app("app p\n" + methods)
        _, _, partition = partition_for(app, methods_per_block=2)
        sizes = [len(b.methods) for layer in partition for b in layer]
        assert sizes == [2] * 5


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=300),
    target=st.sampled_from([1, 2, 4, 8]),
)
def test_partition_covers_exactly_once(seed, target):
    """Property: every method lands in exactly one block."""
    app = tiny_app(seed)
    analyzed, _, partition = partition_for(app, target)
    assigned = [
        method for layer in partition for block in layer for method in block.methods
    ]
    assert sorted(assigned) == sorted(analyzed.method_table)
