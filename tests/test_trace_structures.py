"""Trace dataclass helpers and workload-profile accounting."""

from repro.core.engine import AppWorkload
from repro.core.trace import BlockTrace, NodeMeta
from tests.conftest import tiny_app


def make_trace():
    meta = tuple(
        NodeMeta(
            node=i,
            method="a.B.m()V",
            local_index=i,
            branch_class=i % 25,
            group=i % 3,
            grouped_position=i,
            successors=(i + 1,) if i < 2 else (),
            row_words=2,
        )
        for i in range(3)
    )
    trace = BlockTrace(block_id=0, layer=0, methods=("a.B.m()V",), node_meta=meta)
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
        trace = BlockTrace(block_id=0, layer=0, methods=(), node_meta=())
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
