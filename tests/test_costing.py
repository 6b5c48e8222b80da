"""Cost-adapter tests: the four bottleneck channels react correctly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import costing
from repro.core.blockexec import BlockRunner
from repro.core.blocks import BlockAssignment
from repro.core.config import GDroidConfig
from repro.core.costing import (
    BYTES_PER_ENTRY,
    GROWTH_FACTOR,
    INITIAL_CAPACITY,
    SET_HEADER_BYTES,
    _price_block_scalar,
    _price_columns,
    _sort_cycles,
    _vectorized_exact,
    price_traces,
    set_capacity,
    set_store_bytes,
)
from repro.core.engine import AppWorkload, GDroid
from repro.core.gdroid_kernel import price_gdroid_block, select_trace
from repro.core.plain_kernel import price_plain_block
from repro.core.trace import TraceColumns
from repro.gpu.spec import DEFAULT_COSTS, CostTable
from tests.conftest import seed_path, tiny_app


@pytest.fixture
def block_result(demo_app):
    from repro.cfg.environment import app_with_environments

    analyzed = app_with_environments(demo_app)
    helper = "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
    main = "com.demo.Main.onCreate(Landroid/content/Intent;)V"
    assignment = BlockAssignment(block_id=0, layer=0, methods=(helper, main))
    return BlockRunner(analyzed, assignment, {}, record_mer=True).run()


def grow_step_by_step(sizes):
    """The step-by-step capacity model: one node's set grows through
    ``sizes``, doubling whenever it overflows.  Returns (reallocations,
    final capacity)."""
    capacity = INITIAL_CAPACITY
    events = 0
    for size in sizes:
        while size > capacity:
            capacity *= GROWTH_FACTOR
            events += 1
    return events, capacity


class TestCapacityModel:
    def test_doubling_events(self):
        assert set_capacity(0) == (0, INITIAL_CAPACITY)
        assert set_capacity(INITIAL_CAPACITY) == (0, INITIAL_CAPACITY)
        assert set_capacity(INITIAL_CAPACITY + 1) == (1, 2 * INITIAL_CAPACITY)
        # 8x initial needs three doublings in all.
        assert set_capacity(INITIAL_CAPACITY * 8) == (3, 8 * INITIAL_CAPACITY)
        assert set_capacity(INITIAL_CAPACITY * 8 + 1) == (4, 16 * INITIAL_CAPACITY)

    def test_independent_nodes(self):
        """One node's large set leaves its neighbour's capacity alone."""
        assert set_store_bytes([1000, INITIAL_CAPACITY + 1]) == (
            2 * SET_HEADER_BYTES
            + (set_capacity(1000)[1] + 2 * INITIAL_CAPACITY) * BYTES_PER_ENTRY
        )

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(st.integers(min_value=0, max_value=5000), max_size=12)
    )
    def test_final_size_decides(self, steps):
        """A set only grows, so replaying every growth step and jumping
        straight to the final size agree on reallocations and capacity."""
        sizes = []
        size = 0
        for step in steps:
            size += step
            sizes.append(size)
        assert set_capacity(size) == grow_step_by_step(sizes)


class TestSortCost:
    def test_zero_for_trivial(self):
        assert _sort_cycles(CostTable(), 0) == 0.0
        assert _sort_cycles(CostTable(), 1) == 0.0

    def test_minimum_network_width(self):
        costs = CostTable()
        # Short lists still pay the minimum tile.
        assert _sort_cycles(costs, 2) == _sort_cycles(costs, 12)
        assert _sort_cycles(costs, 64) > _sort_cycles(costs, 12)


class TestPriceBlock:
    def test_plain_pays_alloc_stalls(self, block_result):
        cost = price_plain_block(block_result, GDroidConfig.plain())
        assert cost.alloc_stall_cycles >= 0
        assert cost.cycles > 0
        assert cost.sort_cycles == 0.0

    def test_mat_never_allocates(self, block_result):
        cost = price_gdroid_block(block_result, GDroidConfig.mat_only())
        assert cost.alloc_stall_cycles == 0.0

    def test_grp_pays_sort(self, block_result):
        cost = price_gdroid_block(block_result, GDroidConfig.mat_grp())
        assert cost.sort_cycles > 0.0

    def test_mat_cheaper_than_plain(self, block_result):
        plain = price_plain_block(block_result, GDroidConfig.plain())
        mat = price_gdroid_block(block_result, GDroidConfig.mat_only())
        assert mat.cycles < plain.cycles

    def test_mer_uses_merging_trace(self, block_result):
        full = GDroidConfig.all_optimizations()
        assert select_trace(block_result, full) is block_result.trace_mer
        assert (
            select_trace(block_result, GDroidConfig.mat_grp())
            is block_result.trace_sync
        )

    def test_mer_without_trace_is_an_error(self, demo_app):
        from repro.cfg.environment import app_with_environments

        analyzed = app_with_environments(demo_app)
        helper = "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
        assignment = BlockAssignment(block_id=0, layer=0, methods=(helper,))
        result = BlockRunner(analyzed, assignment, {}, record_mer=False).run()
        with pytest.raises(ValueError, match="MER trace"):
            price_gdroid_block(result, GDroidConfig.all_optimizations())

    def test_visits_and_iterations_reported(self, block_result):
        cost = price_plain_block(block_result, GDroidConfig.plain())
        trace = block_result.trace_sync
        # The fixture packs a caller with its callee, which the runner
        # treats as a joint-fixed-point group: charged per round.
        rounds = trace.summary_rounds
        assert cost.iterations == trace.iteration_count * rounds
        assert cost.node_visits == trace.visit_count * rounds

    def test_divergence_lower_with_grp(self, block_result):
        """GRP reduces per-warp branch classes (25-way -> 3-way)."""
        mat = price_gdroid_block(block_result, GDroidConfig.mat_only())
        grp = price_gdroid_block(block_result, GDroidConfig.mat_grp())
        assert grp.divergence_cycles <= mat.divergence_cycles

    def test_alloc_scales_with_cost_table(self, block_result):
        cheap = GDroidConfig.plain(costs=CostTable().scaled(dynamic_alloc_cycles=1.0))
        pricey = GDroidConfig.plain(costs=CostTable().scaled(dynamic_alloc_cycles=1e6))
        low = price_plain_block(block_result, cheap)
        high = price_plain_block(block_result, pricey)
        if low.alloc_stall_cycles > 0:
            assert high.cycles > low.cycles


class TestGrpWarpHomogeneity:
    def test_sorted_warps_minimize_group_transitions(self, block_result):
        """After GRP's partial sort, group changes happen at most at
        two warp-stream positions per iteration (one per group
        boundary), so the per-warp divergent passes are minimal."""
        from repro.core.costing import _lane_for_visit
        from repro.gpu.warp import form_warps

        config = GDroidConfig.mat_grp()
        trace = block_result.trace_sync
        group = trace.node_arrays.group
        for start, stop in trace.iteration_bounds():
            visits = sorted(
                range(start, stop), key=lambda v: group[trace.nodes[v]]
            )
            groups = [group[trace.nodes[v]] for v in visits]
            transitions = sum(
                1 for a, b in zip(groups, groups[1:]) if a != b
            )
            assert transitions <= 2  # at most 3 contiguous group runs
            lanes = [_lane_for_visit(trace, v, config) for v in visits]
            extra_passes = sum(
                len({lane.branch_class for lane in warp}) - 1
                for warp in form_warps(lanes, 32)
            )
            assert extra_passes <= transitions


class TestSetStoreBytes:
    def test_footprint_counts_headers_and_capacity(self, block_result):
        nbytes = set_store_bytes(block_result.fact_counts)
        floor = block_result.trace_sync.node_count * (
            SET_HEADER_BYTES + INITIAL_CAPACITY * BYTES_PER_ENTRY
        )
        assert nbytes >= floor


# -- the vectorized pass against the scalar replay -----------------------------

#: The experiment matrix's four configurations, the single-optimization
#: ablations' set-store GRP and MER, and the alloc sweep's scaled cost
#: tables (bench_ablation_alloc_cost.py).
PRICED_CONFIGS = [
    GDroidConfig.plain(),
    GDroidConfig.mat_only(),
    GDroidConfig.mat_grp(),
    GDroidConfig.all_optimizations(),
    GDroidConfig(use_grp=True),
    GDroidConfig(use_mer=True),
] + [
    GDroidConfig.plain(
        costs=DEFAULT_COSTS.scaled(
            dynamic_alloc_cycles=DEFAULT_COSTS.dynamic_alloc_cycles * multiplier
        )
    )
    for multiplier in (0.0, 0.25, 1.0, 4.0)
]


def workload_columns(workload, config):
    return TraceColumns(
        [select_trace(result, config) for result in workload.block_results],
        [result.fact_counts for result in workload.block_results],
    )


def scalar_costs(columns, config):
    return [
        _price_block_scalar(trace, config, counts)
        for trace, counts in zip(columns.traces, columns.fact_counts)
    ]


@pytest.fixture(scope="module", params=[4, 13, 23, 26, 31])
def priced_workload(request):
    """Generated apps; 13 and 26 hold blocks that need several summary
    rounds."""
    return AppWorkload.build(tiny_app(request.param))


class TestVectorizedPricing:
    @pytest.mark.parametrize("config", PRICED_CONFIGS)
    def test_equals_scalar_replay(self, priced_workload, config):
        assert _vectorized_exact(config)
        columns = workload_columns(priced_workload, config)
        vectorized = _price_columns(columns, config)
        scalar = scalar_costs(columns, config)
        assert len(vectorized) == len(scalar) == len(priced_workload.block_results)
        for got, want in zip(vectorized, scalar):
            assert got == want

    def test_summary_rounds_are_covered(self):
        workloads = [AppWorkload.build(tiny_app(seed)) for seed in (13, 26)]
        assert all(
            max(r.trace_sync.summary_rounds for r in w.block_results) > 1
            for w in workloads
        )

    def test_slices_change_nothing(self, priced_workload, monkeypatch):
        """Cutting the pass into one-iteration slices prices the same."""
        config = GDroidConfig.mat_grp()
        columns = workload_columns(priced_workload, config)
        whole = _price_columns(columns, config)
        monkeypatch.setattr(costing, "SLICE_VISITS", 1)
        assert _price_columns(columns, config) == whole

    @pytest.mark.parametrize(
        "overrides",
        [{"node_record_bytes": 48}, {"set_scan_cycles_per_entry": 6.5}],
        ids=["straddling-record", "fractional-constant"],
    )
    @pytest.mark.parametrize("plain", [True, False], ids=["plain", "mat-grp"])
    def test_inexact_tables_take_the_scalar_replay(
        self, priced_workload, overrides, plain, monkeypatch
    ):
        costs = DEFAULT_COSTS.scaled(**overrides)
        config = (
            GDroidConfig.plain(costs=costs)
            if plain
            else GDroidConfig.mat_grp(costs=costs)
        )
        assert not _vectorized_exact(config)
        columns = workload_columns(priced_workload, config)
        expected = scalar_costs(columns, config)

        def unreachable(*args):
            raise AssertionError("the vectorized pass priced an inexact table")

        monkeypatch.setattr(costing, "_price_columns", unreachable)
        assert price_traces(columns, config) == expected

    def test_engine_prices_from_the_pass(self, priced_workload):
        config = GDroidConfig.all_optimizations()
        fast = GDroid(config).price(priced_workload)
        with seed_path():
            slow = GDroid(config).price(priced_workload)
        assert fast.kernels == slow.kernels
        assert fast.kernel_cycles == slow.kernel_cycles

    def test_mer_without_trace_is_an_error_in_the_engine(self):
        workload = AppWorkload.build(tiny_app(4), record_mer=False)
        GDroid(GDroidConfig.mat_grp()).price(workload)
        with pytest.raises(ValueError, match="MER trace"):
            GDroid(GDroidConfig.all_optimizations()).price(workload)
