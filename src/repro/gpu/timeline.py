"""Kernel timeline in Chrome trace-event format.

Loads into ``chrome://tracing`` / Perfetto: one row per SM slot, one
span per thread block, with the per-bottleneck cycle breakdown attached
as span arguments.  Gives the simulated executions the same
inspectability a real CUDA profile would have.  The events are written
by :func:`repro.obs.export.write_chrome_trace`, the one trace writer.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from repro.gpu.kernel import BlockCost, KernelCost
from repro.gpu.spec import GPUSpec, TESLA_P40


def _schedule_spans(
    kernel: KernelCost,
    spec: GPUSpec,
    blocks_per_sm: int,
    start_cycles: float,
) -> List[Tuple[BlockCost, int, float]]:
    """(block, slot, start) via the same LPT order the kernel used."""
    slots = max(1, spec.sm_count * min(blocks_per_sm, spec.max_blocks_per_sm))
    heap: List[Tuple[float, int]] = [(start_cycles, index) for index in range(slots)]
    heapq.heapify(heap)
    spans: List[Tuple[BlockCost, int, float]] = []
    for block in sorted(kernel.block_costs, key=lambda b: b.cycles, reverse=True):
        load, slot = heapq.heappop(heap)
        spans.append((block, slot, load))
        heapq.heappush(heap, (load + block.cycles, slot))
    return spans


def kernel_timeline_events(
    kernels: Sequence[KernelCost],
    spec: GPUSpec = TESLA_P40,
    blocks_per_sm: int = 4,
) -> List[Dict]:
    """Trace events for a sequence of kernel launches (one per layer)."""
    events: List[Dict] = []
    clock_us = 1.0 / (spec.clock_ghz * 1e3)  # cycles -> microseconds
    cursor = 0.0
    for layer, kernel in enumerate(kernels):
        events.append(
            {
                "name": f"kernel launch (layer {layer})",
                "ph": "X",
                "ts": cursor * clock_us,
                "dur": kernel.launch_cycles * clock_us,
                "pid": 0,
                "tid": 0,
                "cat": "launch",
            }
        )
        body_start = cursor + kernel.launch_cycles
        for block, slot, start in _schedule_spans(
            kernel, spec, blocks_per_sm, body_start
        ):
            events.append(
                {
                    "name": f"block {block.block_id}",
                    "ph": "X",
                    "ts": start * clock_us,
                    "dur": max(block.cycles, 1.0) * clock_us,
                    "pid": 0,
                    "tid": slot + 1,
                    "cat": "block",
                    "args": {
                        "iterations": block.iterations,
                        "node_visits": block.node_visits,
                        "compute_cycles": round(block.compute_cycles),
                        "divergence_cycles": round(block.divergence_cycles),
                        "memory_cycles": round(block.memory_cycles),
                        "alloc_stall_cycles": round(block.alloc_stall_cycles),
                        "sort_cycles": round(block.sort_cycles),
                    },
                }
            )
        cursor = body_start + kernel.makespan_cycles
    return events
