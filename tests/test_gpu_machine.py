"""Allocator, transfer engine, kernel scheduling and device facade."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.allocator import DeviceAllocator, DeviceOutOfMemory
from repro.gpu.kernel import BlockCost, schedule_blocks
from repro.gpu.sim import GPUDevice
from repro.gpu.spec import CostTable, TESLA_P40
from repro.gpu.transfer import DualBufferSchedule, TransferEngine, plan_chunks


class TestSpec:
    def test_p40_matches_paper(self):
        assert TESLA_P40.sm_count == 30
        assert TESLA_P40.cores_per_sm == 128
        assert TESLA_P40.shared_memory_per_sm_bytes == 48 * 1024
        assert TESLA_P40.global_memory_bytes == 24 * 1024**3
        assert TESLA_P40.warp_size == 32

    def test_cycle_second_round_trip(self):
        cycles = 1.5e9
        assert TESLA_P40.seconds_to_cycles(
            TESLA_P40.cycles_to_seconds(cycles)
        ) == pytest.approx(cycles)

    def test_cost_orderings(self):
        """The mechanistic orderings the model depends on."""
        costs = CostTable()
        # A dynamic allocation dwarfs every per-fact operation.
        assert costs.dynamic_alloc_cycles > 100 * costs.set_insert_cycles
        # Matrix lookups are cheaper than set operations.
        assert costs.mat_lookup_cycles < costs.set_insert_cycles
        assert costs.mat_lookup_cycles < costs.set_scan_cycles_per_entry * 3

    def test_scaled_override(self):
        costs = CostTable().scaled(dynamic_alloc_cycles=1.0)
        assert costs.dynamic_alloc_cycles == 1.0


class TestAllocator:
    def test_reserve_and_release(self):
        allocator = DeviceAllocator()
        allocator.reserve(1024)
        assert allocator.stats.bytes_in_use == 1024
        allocator.release(1024)
        assert allocator.stats.bytes_in_use == 0
        assert allocator.stats.high_water_bytes == 1024

    def test_out_of_memory(self):
        allocator = DeviceAllocator()
        with pytest.raises(DeviceOutOfMemory):
            allocator.reserve(TESLA_P40.global_memory_bytes + 1)

    def test_realloc_burst_serializes(self):
        allocator = DeviceAllocator()
        stall = allocator.dynamic_realloc_burst(5)
        assert stall == 5 * allocator.costs.dynamic_alloc_cycles
        assert allocator.stats.dynamic_allocs == 5

    def test_zero_burst_free(self):
        allocator = DeviceAllocator()
        assert allocator.dynamic_realloc_burst(0) == 0.0


class TestDualBuffering:
    def test_pipelined_hides_transfers(self):
        schedule = DualBufferSchedule(chunks=((10, 100), (20, 100), (30, 50)))
        assert schedule.serial_cycles == 310
        # t0 + max(k0,t1) + max(k1,t2) + k2 = 10+100+100+50
        assert schedule.pipelined_cycles == 260
        assert schedule.hidden_cycles == 50

    def test_transfer_bound_pipeline(self):
        # Transfers dominate: kernel time hides inside copies.
        schedule = DualBufferSchedule(chunks=((100, 10), (100, 10)))
        assert schedule.pipelined_cycles == 100 + 100 + 10

    def test_empty(self):
        schedule = DualBufferSchedule(chunks=())
        assert schedule.pipelined_cycles == 0.0

    def test_plan_chunks_splits_by_buffer(self):
        engine = TransferEngine()
        schedule = plan_chunks(1000, 500.0, 300, engine)
        assert len(schedule.chunks) == 4  # 300+300+300+100
        assert engine.bytes_moved == 1000

    @settings(max_examples=50, deadline=None)
    @given(
        chunks=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e6),
                st.floats(min_value=0, max_value=1e6),
            ),
            max_size=12,
        )
    )
    def test_pipeline_bounds(self, chunks):
        """Property: pipelining never loses, never beats the two LBs."""
        schedule = DualBufferSchedule(chunks=tuple(chunks))
        pipelined = schedule.pipelined_cycles
        assert pipelined <= schedule.serial_cycles + 1e-6
        total_kernel = sum(k for _, k in chunks)
        first_transfer = chunks[0][0] if chunks else 0.0
        assert pipelined >= total_kernel + first_transfer - 1e-6


class TestKernelScheduling:
    def blocks(self, cycles):
        return [
            BlockCost(block_id=i, cycles=c, iterations=1, node_visits=1)
            for i, c in enumerate(cycles)
        ]

    def test_fewer_blocks_than_slots(self):
        kernel = schedule_blocks(self.blocks([100, 200, 50]))
        assert kernel.makespan_cycles == 200

    def test_makespan_lower_bounds(self):
        cycles = [float(i % 7 + 1) * 100 for i in range(500)]
        kernel = schedule_blocks(self.blocks(cycles), blocks_per_sm=4)
        slots = 30 * 4
        assert kernel.makespan_cycles >= max(cycles)
        assert kernel.makespan_cycles >= sum(cycles) / slots
        # LPT is within 4/3 of the trivial lower bound.
        assert kernel.makespan_cycles <= max(
            max(cycles), sum(cycles) / slots
        ) * (4 / 3) + max(cycles)

    def test_launch_overhead_charged(self):
        kernel = schedule_blocks(self.blocks([10]))
        assert kernel.total_cycles == kernel.makespan_cycles + kernel.launch_cycles

    def test_breakdown_sums_components(self):
        block = BlockCost(
            block_id=0, cycles=10, iterations=1, node_visits=1,
            compute_cycles=4, memory_cycles=6,
        )
        kernel = schedule_blocks([block])
        breakdown = kernel.breakdown()
        assert breakdown["compute_cycles"] == 4
        assert breakdown["memory_cycles"] == 6


class TestDevice:
    def test_launch_accumulates(self):
        device = GPUDevice()
        device.launch(
            [BlockCost(block_id=0, cycles=100, iterations=1, node_visits=1)],
            blocks_per_sm=4,
        )
        assert device.stats.kernels_launched == 1
        assert device.stats.kernel_cycles > 0
        assert device.elapsed_seconds() > 0

    def test_staging_charges_exposed_transfer(self):
        device = GPUDevice()
        schedule = device.stage_input(10 * 1024**3, kernel_cycles_estimate=1.0)
        # 10 GB image, negligible kernel: nearly everything exposed.
        assert device.stats.transfer_cycles > 0
        assert schedule.chunks
