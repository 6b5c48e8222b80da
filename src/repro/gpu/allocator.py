"""Device-heap allocator with reallocation stalls (bottleneck #1).

"The exact size of each set is unable to be foreknown; hence we should
pre-allocate a fixed-size GPU memory space for each set ... In the case
that the data-fact's volume exceeds the pre-allocated set size, GPU has
to dynamically re-allocate the memory space for it" (Section III-B2).

The allocator models a global device heap guarded by a lock: every
reallocation serializes against concurrent allocations on the device,
so a burst of reallocations in one iteration costs
``count * dynamic_alloc_cycles`` *sequential* cycles.  It also tracks
high-water usage against the device's 24 GB so the engine can decide
when the dual-buffered sub-graph path is required.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.spec import CostTable, GPUSpec, TESLA_P40


class DeviceOutOfMemory(RuntimeError):
    """Raised when a reservation exceeds device global memory."""


@dataclass
class AllocationStats:
    """Aggregate allocator activity."""

    dynamic_allocs: int = 0
    stall_cycles: float = 0.0
    bytes_in_use: int = 0
    high_water_bytes: int = 0


class DeviceAllocator:
    """Global device heap with serialized dynamic reallocation."""

    __slots__ = ("spec", "costs", "stats")

    def __init__(
        self, spec: GPUSpec = TESLA_P40, costs: CostTable | None = None
    ) -> None:
        self.spec = spec
        self.costs = costs or CostTable()
        self.stats = AllocationStats()

    # -- static reservations ----------------------------------------------------

    def reserve(self, nbytes: int) -> None:
        """Up-front allocation (buffers, matrices); never stalls kernels."""
        new_usage = self.stats.bytes_in_use + nbytes
        if new_usage > self.spec.global_memory_bytes:
            raise DeviceOutOfMemory(
                f"reserve({nbytes}) exceeds device memory "
                f"({new_usage} > {self.spec.global_memory_bytes})"
            )
        self.stats.bytes_in_use = new_usage
        if new_usage > self.stats.high_water_bytes:
            self.stats.high_water_bytes = new_usage

    def release(self, nbytes: int) -> None:
        """Return bytes to the device heap."""
        self.stats.bytes_in_use = max(0, self.stats.bytes_in_use - nbytes)

    # -- dynamic reallocation ------------------------------------------------------

    def dynamic_realloc_burst(self, count: int, grown_bytes: int = 0) -> float:
        """Charge ``count`` in-kernel reallocations happening together.

        Returns the serialized stall cycles (callers add them to the
        iteration's critical path).  ``grown_bytes`` tracks footprint.
        """
        if count <= 0:
            return 0.0
        stall = count * self.costs.dynamic_alloc_cycles
        self.stats.dynamic_allocs += count
        self.stats.stall_cycles += stall
        if grown_bytes:
            self.stats.bytes_in_use += grown_bytes
            if self.stats.bytes_in_use > self.stats.high_water_bytes:
                self.stats.high_water_bytes = self.stats.bytes_in_use
        return stall

    def reset(self) -> None:
        """Clear all accumulated statistics."""
        self.stats = AllocationStats()
