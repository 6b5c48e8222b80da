"""Trace dataclass helpers and workload-profile accounting."""

from repro.core.engine import AppWorkload
from array import array
from itertools import accumulate, chain

from repro.core.trace import BlockTrace, NodeArrays
from tests.conftest import tiny_app


def one_method_arrays(successors):
    """Node arrays of a block holding one method with these successors."""
    count = len(successors)
    return NodeArrays(
        methods=("a.B.m()V",),
        method_start=(0,),
        method_index=array("i", [0] * count),
        successors=tuple(successors),
        successor_start=array("i", accumulate(map(len, successors), initial=0)),
        successor_ids=array("i", chain.from_iterable(successors)),
        branch_class=array("i", [i % 25 for i in range(count)]),
        group=array("i", [i % 3 for i in range(count)]),
        grouped_position=array("i", range(count)),
        row_words=array("i", [2] * count),
    )


def make_trace():
    arrays = one_method_arrays([(1,), (2,), ()])
    trace = BlockTrace(
        block_id=0, layer=0, methods=("a.B.m()V",), node_arrays=arrays
    )
    trace.add_visit(node=0, in_size=1, out_size=2, new_facts=2, first_visit=True)
    trace.add_visit(node=1, in_size=2, out_size=2, new_facts=0, first_visit=True)
    trace.add_iteration(worklist_size=2, visits=2, merged=0)
    trace.add_visit(node=2, in_size=2, out_size=2, new_facts=0, first_visit=True)
    trace.add_iteration(worklist_size=1, visits=1, merged=0)
    return trace


class TestBlockTrace:
    def test_counters(self):
        trace = make_trace()
        assert trace.node_count == 3
        assert trace.iteration_count == 2
        assert trace.visit_count == 3
        assert trace.worklist_sizes() == [2, 1]
        assert trace.max_worklist() == 2
        assert list(trace.iteration_bounds()) == [(0, 2), (2, 3)]

    def test_empty_trace(self):
        trace = BlockTrace(
            block_id=0, layer=0, methods=(), node_arrays=one_method_arrays([])
        )
        assert trace.max_worklist() == 0
        assert trace.visit_count == 0


class TestWorkloadProfileAccounting:
    def test_totals_are_consistent(self):
        workload = AppWorkload.build(tiny_app(23))
        profile = workload.profile
        # Sizes histogram length == iteration count, per dynamics.
        assert len(profile.worklist_sizes_sync) == profile.iterations_sync
        assert len(profile.worklist_sizes_mer) == profile.iterations_mer
        # Sync visits equal the sum of worklist sizes (whole-list
        # processing); MER dedups but its postponement can add a few
        # revisits on tiny apps, so the bound is approximate.
        assert profile.visits_sync == sum(profile.worklist_sizes_sync)
        assert profile.visits_mer <= profile.visits_sync * 1.15

    def test_staged_bytes_scale_with_nodes(self):
        small = AppWorkload.build(tiny_app(23))
        from tests.conftest import SMALL_PROFILE
        from repro.apk.generator import AppGenerator

        big = AppWorkload.build(AppGenerator(SMALL_PROFILE).generate(23))
        assert big.staged_bytes() > small.staged_bytes()
        assert small.staged_bytes() == small.profile.cfg_nodes * 256
