"""Thread-block scheduling across SMs and kernel cost aggregation.

The two-level parallelization (paper Fig. 3) maps one method -- or,
after tuning, a group of 3-4 methods -- to a thread block and one
worklist node to a thread.  Blocks are scheduled onto the 30 SMs; the
kernel's makespan is the heaviest SM's load.  "Empirically 4-5 thread-
blocks/SM achieves optimal GPU utilization" (Section V), which the
engine's tuning parameters reproduce.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.gpu.spec import CostTable, GPUSpec, TESLA_P40


@dataclass(frozen=True)
class BlockCost:
    """Cycle breakdown of one executed thread block."""

    block_id: int
    cycles: float
    iterations: int
    node_visits: int
    compute_cycles: float = 0.0
    divergence_cycles: float = 0.0
    memory_cycles: float = 0.0
    alloc_stall_cycles: float = 0.0
    sort_cycles: float = 0.0
    sync_cycles: float = 0.0
    idle_lane_cycles: float = 0.0


@dataclass(frozen=True)
class KernelCost:
    """Aggregated cost of one kernel launch."""

    block_costs: Tuple[BlockCost, ...]
    makespan_cycles: float
    launch_cycles: float
    #: SM slot loads after scheduling (diagnostics / tests).
    slot_loads: Tuple[float, ...] = ()

    @property
    def total_cycles(self) -> float:
        """All charged cycles (kernel + exposed transfer)."""
        return self.makespan_cycles + self.launch_cycles

    @property
    def total_iterations(self) -> int:
        """Iterations across all blocks."""
        return sum(b.iterations for b in self.block_costs)

    @property
    def total_visits(self) -> int:
        """Node visits across all blocks."""
        return sum(b.node_visits for b in self.block_costs)

    def breakdown(self) -> Dict[str, float]:
        """Summed per-component cycles across blocks (profiling)."""
        keys = (
            "compute_cycles",
            "divergence_cycles",
            "memory_cycles",
            "alloc_stall_cycles",
            "sort_cycles",
            "sync_cycles",
            "idle_lane_cycles",
        )
        return {key: sum(getattr(b, key) for b in self.block_costs) for key in keys}


def schedule_blocks(
    block_costs: Sequence[BlockCost],
    spec: GPUSpec = TESLA_P40,
    blocks_per_sm: int = 4,
    costs: CostTable | None = None,
) -> KernelCost:
    """Schedule blocks onto SM slots and compute the kernel makespan.

    The device offers ``sm_count * blocks_per_sm`` concurrent block
    slots.  Hardware block scheduling is greedy -- a finishing slot
    picks up the next pending block -- which we reproduce with an
    LPT-flavoured list schedule (longest blocks first onto the least
    loaded slot); the makespan is the heaviest slot.
    """
    table = costs or CostTable()
    resident = min(blocks_per_sm, spec.max_blocks_per_sm)
    slots = max(1, spec.sm_count * resident)
    heap: List[Tuple[float, int]] = [(0.0, index) for index in range(slots)]
    heapq.heapify(heap)
    for block in sorted(block_costs, key=lambda b: b.cycles, reverse=True):
        load, index = heapq.heappop(heap)
        heapq.heappush(heap, (load + block.cycles, index))
    slot_loads = tuple(sorted(load for load, _ in heap))
    makespan = slot_loads[-1] if slot_loads else 0.0
    # DRAM/L2 contention slows every resident block once the SM hosts
    # more blocks than the empirical sweet spot.
    extra = max(0, resident - table.contention_sweet_spot_blocks)
    if extra:
        makespan *= 1.0 + table.contention_per_extra_block * extra
    return KernelCost(
        block_costs=tuple(block_costs),
        makespan_cycles=makespan,
        launch_cycles=table.kernel_launch_cycles
        + table.block_staging_cycles * len(block_costs),
        slot_loads=slot_loads,
    )
