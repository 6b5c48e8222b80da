"""CPU counterpart and Amandroid pipeline model tests."""

import pytest

from repro.core.engine import AppWorkload
from repro.cpu.amandroid import AmandroidModel
from repro.cpu.multicore import (
    CPUCostTable,
    CPUSpec,
    MulticoreWorklist,
    XEON_GOLD_5115,
)
from tests.conftest import tiny_app


@pytest.fixture(scope="module")
def workload():
    return AppWorkload.build(tiny_app(4))


class TestCPUSpec:
    def test_matches_paper_host(self):
        assert XEON_GOLD_5115.cores == 10
        assert XEON_GOLD_5115.clock_ghz == 2.4
        assert XEON_GOLD_5115.ram_bytes == 64 * 1024**3


class TestMulticore:
    def test_method_cycles_cover_all_methods(self, workload):
        model = MulticoreWorklist()
        per_method = model.method_cycles(workload)
        visited_methods = set()
        for result in workload.block_results:
            trace = result.trace_mer or result.trace_sync
            for node in trace.nodes:
                visited_methods.add(trace.node_arrays.method_of(node))
        assert set(per_method) == visited_methods

    def test_layer_barriers_counted(self, workload):
        result = MulticoreWorklist().analyze(workload)
        assert len(result.per_layer_cycles) == len(workload.layering.layers)
        assert result.total_cycles == pytest.approx(sum(result.per_layer_cycles))

    def test_more_cores_never_slower(self, workload):
        few = MulticoreWorklist(spec=CPUSpec(cores=2)).analyze(workload)
        many = MulticoreWorklist(spec=CPUSpec(cores=16)).analyze(workload)
        assert many.total_cycles <= few.total_cycles

    def test_cost_scaling(self, workload):
        cheap = MulticoreWorklist(costs=CPUCostTable(visit_cycles=1.0))
        dear = MulticoreWorklist(costs=CPUCostTable(visit_cycles=1e6))
        assert (
            dear.analyze(workload).total_cycles
            > cheap.analyze(workload).total_cycles
        )

    def test_visits_match_trace(self, workload):
        result = MulticoreWorklist().analyze(workload)
        expected = sum(
            (r.trace_mer or r.trace_sync).visit_count
            * max(1, (r.trace_mer or r.trace_sync).summary_rounds)
            for r in workload.block_results
        )
        assert result.visits == expected


class TestAmandroid:
    def test_breakdown_components_positive(self, workload):
        timing = AmandroidModel().analyze(workload)
        assert timing.frontend_cycles > 0
        assert timing.idfg_cycles > 0
        assert timing.plugin_cycles > 0
        assert timing.total_seconds == pytest.approx(
            timing.spec.cycles_to_seconds(timing.total_cycles)
        )

    def test_idfg_dominates(self, workload):
        """Fig. 1: IDFG construction is 58-96% of the total."""
        timing = AmandroidModel().analyze(workload)
        assert 0.4 < timing.idfg_fraction < 0.97

    def test_bigger_apps_cost_more(self):
        small = AmandroidModel().analyze(AppWorkload.build(tiny_app(4)))
        from tests.conftest import SMALL_PROFILE
        from repro.apk.generator import AppGenerator

        bigger_app = AppGenerator(SMALL_PROFILE).generate(4)
        big = AmandroidModel().analyze(AppWorkload.build(bigger_app))
        assert big.total_cycles > small.total_cycles
