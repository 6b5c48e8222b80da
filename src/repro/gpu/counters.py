"""Derived performance counters for simulated kernels.

The metrics a CUDA profiler would report, computed from the
simulator's cost records: achieved occupancy, SIMD (warp-lane)
efficiency, memory-bandwidth efficiency, and the bottleneck mix.  The
optimization-study example and the vetting throughput dashboards read
these instead of raw cycle tallies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.gpu.kernel import KernelCost
from repro.gpu.spec import CostTable, GPUSpec, TESLA_P40


@dataclass(frozen=True)
class KernelCounters:
    """Profiler-style summary of one kernel launch."""

    #: Fraction of SM slot-time doing work (vs idle slots).
    achieved_occupancy: float
    #: Active lanes / (warps x warp size): how full the warps ran.
    simd_efficiency: float
    #: Share of each cost channel in the charged cycles.
    bottleneck_mix: Dict[str, float]
    #: Node visits per kilocycle of makespan (throughput).
    visits_per_kcycle: float

    def dominant_bottleneck(self) -> str:
        """Largest entry of the bottleneck mix."""
        return max(self.bottleneck_mix, key=self.bottleneck_mix.get)


def kernel_counters(
    kernel: KernelCost,
    spec: GPUSpec = TESLA_P40,
    costs: Optional[CostTable] = None,
) -> KernelCounters:
    """Derive profiler metrics from one kernel's cost records."""
    table = costs or CostTable()
    total_slot_time = (
        len(kernel.slot_loads) * kernel.makespan_cycles
        if kernel.slot_loads
        else 0.0
    )
    busy = sum(kernel.slot_loads)
    occupancy = busy / total_slot_time if total_slot_time else 0.0

    # SIMD efficiency from the idle-lane metric: idle_lane_cycles
    # charges node_issue per empty lane, so lanes can be recovered.
    total_visits = kernel.total_visits
    idle_lanes = sum(
        block.idle_lane_cycles / table.node_issue_cycles
        for block in kernel.block_costs
    )
    lanes = total_visits + idle_lanes
    simd = total_visits / lanes if lanes else 0.0

    breakdown = kernel.breakdown()
    breakdown.pop("idle_lane_cycles", None)
    charged = sum(breakdown.values()) or 1.0
    mix = {key: value / charged for key, value in breakdown.items()}

    throughput = (
        total_visits / (kernel.makespan_cycles / 1000.0)
        if kernel.makespan_cycles
        else 0.0
    )
    return KernelCounters(
        achieved_occupancy=occupancy,
        simd_efficiency=simd,
        bottleneck_mix=mix,
        visits_per_kcycle=throughput,
    )


def run_counters(
    kernels: Sequence[KernelCost],
    spec: GPUSpec = TESLA_P40,
    costs: Optional[CostTable] = None,
) -> KernelCounters:
    """Aggregate counters over a whole run (cycle-weighted)."""
    if not kernels:
        return KernelCounters(0.0, 0.0, {}, 0.0)
    per_kernel = [kernel_counters(k, spec, costs) for k in kernels]
    weights = [max(k.makespan_cycles, 1.0) for k in kernels]
    total = sum(weights)

    def weighted(selector) -> float:
        return sum(
            selector(counters) * weight
            for counters, weight in zip(per_kernel, weights)
        ) / total

    mix: Dict[str, float] = {}
    for counters, weight in zip(per_kernel, weights):
        for key, value in counters.bottleneck_mix.items():
            mix[key] = mix.get(key, 0.0) + value * weight / total
    return KernelCounters(
        achieved_occupancy=weighted(lambda c: c.achieved_occupancy),
        simd_efficiency=weighted(lambda c: c.simd_efficiency),
        bottleneck_mix=mix,
        visits_per_kcycle=weighted(lambda c: c.visits_per_kcycle),
    )
