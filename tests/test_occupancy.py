"""Shared-memory occupancy tests."""

import dataclasses

from repro.gpu.occupancy import (
    BLOCK_SHARED_OVERHEAD_BYTES,
    WORKLIST_ENTRY_BYTES,
    block_shared_bytes,
    occupancy,
)
from repro.gpu.spec import TESLA_P40


class TestBlockSharedBytes:
    def test_double_buffered_worklists(self):
        expected = BLOCK_SHARED_OVERHEAD_BYTES + 2 * 100 * WORKLIST_ENTRY_BYTES
        assert block_shared_bytes(100) == expected

    def test_grp_adds_sort_scratch(self):
        assert block_shared_bytes(100, use_grp=True) > block_shared_bytes(100)

    def test_minimum_width(self):
        assert block_shared_bytes(0) == block_shared_bytes(1)


class TestOccupancy:
    def test_small_worklists_allow_many_blocks(self):
        report = occupancy(max_worklist_length=74, blocks_per_sm=5)
        # 74-entry worklists need ~1.7 KB: dozens fit in 48 KB.
        assert report.feasible
        assert report.effective_blocks_per_sm == 5

    def test_huge_worklists_cap_residency(self):
        report = occupancy(max_worklist_length=2000, blocks_per_sm=5)
        assert report.max_resident_blocks <= 2
        assert not report.feasible
        assert report.effective_blocks_per_sm == report.max_resident_blocks

    def test_hardware_block_cap_respected(self):
        report = occupancy(max_worklist_length=1, blocks_per_sm=64)
        assert report.max_resident_blocks <= TESLA_P40.max_blocks_per_sm

    def test_tiny_shared_memory_device(self):
        spec = dataclasses.replace(TESLA_P40, shared_memory_per_sm_bytes=2048)
        report = occupancy(max_worklist_length=64, blocks_per_sm=4, spec=spec)
        assert report.max_resident_blocks == 1


class TestEngineIntegration:
    def test_occupancy_limits_pricing(self):
        """A shared-memory-starved device serializes blocks; modeled
        time must not improve over the real P40."""
        from repro.core.config import GDroidConfig
        from repro.core.engine import AppWorkload, GDroid
        from tests.conftest import tiny_app

        workload = AppWorkload.build(tiny_app(14))
        normal = GDroid(GDroidConfig.all_optimizations()).price(workload)
        starved_spec = dataclasses.replace(
            TESLA_P40, shared_memory_per_sm_bytes=1024
        )
        starved = GDroid(
            GDroidConfig.all_optimizations(spec=starved_spec)
        ).price(workload)
        assert starved.kernel_cycles >= normal.kernel_cycles
