"""The simulated GPU device facade.

:class:`GPUDevice` bundles the spec, cost table, allocator, memory
model and transfer engine into the single object the GDroid kernels
execute against, and accumulates whole-run statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.gpu.allocator import DeviceAllocator
from repro.gpu.kernel import BlockCost, KernelCost, schedule_blocks
from repro.gpu.memory import MemoryModel
from repro.gpu.spec import CostTable, DEFAULT_COSTS, GPUSpec, TESLA_P40
from repro.gpu.transfer import DualBufferSchedule, TransferEngine, plan_chunks


@dataclass
class DeviceStats:
    """Whole-run accumulated statistics."""

    kernel_cycles: float = 0.0
    transfer_cycles: float = 0.0
    hidden_transfer_cycles: float = 0.0
    kernels_launched: int = 0

    @property
    def total_cycles(self) -> float:
        """All charged cycles (kernel + exposed transfer)."""
        return self.kernel_cycles + self.transfer_cycles


class GPUDevice:
    """One simulated device; create one per analyzed app run."""

    __slots__ = ("spec", "costs", "allocator", "memory", "transfer", "stats")

    def __init__(
        self,
        spec: GPUSpec = TESLA_P40,
        costs: Optional[CostTable] = None,
    ) -> None:
        self.spec = spec
        self.costs = costs or DEFAULT_COSTS
        self.allocator = DeviceAllocator(spec, self.costs)
        self.memory = MemoryModel(spec)
        self.transfer = TransferEngine(spec)
        self.stats = DeviceStats()

    # -- staging -------------------------------------------------------------

    def stage_input(
        self, total_bytes: int, kernel_cycles_estimate: float
    ) -> DualBufferSchedule:
        """Host->device staging of the app image with dual buffering.

        The usable buffer is half the device memory (two buffers); the
        returned schedule's *unhidden* cycles are charged as transfer
        time.
        """
        buffer_bytes = self.spec.global_memory_bytes // 2
        schedule = plan_chunks(
            total_bytes, kernel_cycles_estimate, buffer_bytes, self.transfer
        )
        raw = sum(t for t, _ in schedule.chunks)
        exposed = max(0.0, schedule.pipelined_cycles - kernel_cycles_estimate)
        self.stats.transfer_cycles += exposed if schedule.chunks else 0.0
        self.stats.hidden_transfer_cycles += raw - exposed
        return schedule

    # -- kernels --------------------------------------------------------------

    def launch(
        self, block_costs: List[BlockCost], blocks_per_sm: int
    ) -> KernelCost:
        """Schedule and charge one kernel launch."""
        kernel = schedule_blocks(
            block_costs, self.spec, blocks_per_sm, self.costs
        )
        self.stats.kernel_cycles += kernel.total_cycles
        self.stats.kernels_launched += 1
        return kernel

    # -- results ---------------------------------------------------------------

    def elapsed_seconds(self) -> float:
        """Total modeled run time so far."""
        return self.spec.cycles_to_seconds(self.stats.total_cycles)
