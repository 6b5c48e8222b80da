"""Multi-GPU worklist execution model (the paper's future work).

Conclusion/Future work: "given the amount of Android Apps is large, we
consider to map the worklist algorithm onto multi-GPU platforms or
even GPU clusters.  This kind of implementation requires sophisticated
designs regarding data partitions and communications between GPUs."

Model: within one SBDA layer, thread blocks are partitioned across the
devices (LPT); after every layer, the devices exchange the layer's
method summaries and global-fact updates over the interconnect before
the next layer may start.  The exchange is the scaling limiter --
layers are barriers, so each device waits for the slowest peer plus
the all-to-all summary broadcast.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.config import GDroidConfig
from repro.core.engine import AppWorkload
from repro.gpu.kernel import schedule_blocks
from repro.gpu.spec import GPUSpec

#: NVLink-class effective inter-GPU bandwidth.
INTERCONNECT_GBS = 40.0
#: Bytes exchanged per method summary (return sources, global/field
#: write lists).
SUMMARY_BYTES = 512
#: Fixed all-to-all latency per layer barrier (microseconds -> cycles
#: happens against the device clock).
EXCHANGE_LATENCY_S = 25e-6


def lpt_assignment(
    costs: List[float],
    buckets: int,
    initial_loads: Optional[List[float]] = None,
) -> List[List[int]]:
    """Longest-Processing-Time placement of ``costs`` into ``buckets``.

    Returns, per bucket, the indices of the costs assigned to it:
    items are taken heaviest-first and each goes to the currently
    least-loaded bucket.  ``initial_loads`` seeds the bucket loads, so
    callers can re-balance onto buckets that already carry work (the
    serving sharder assigns new batches against live worker queues).
    Shared by :class:`MultiGPUEngine` (blocks onto devices within one
    layer), :func:`corpus_throughput_cycles` (whole apps onto devices),
    and :mod:`repro.serve` (job batches onto device workers).
    """
    if buckets < 1:
        raise ValueError("need at least one bucket")
    loads = list(initial_loads) if initial_loads else [0.0] * buckets
    if len(loads) != buckets:
        raise ValueError("initial_loads length must equal buckets")
    heap: List[Tuple[float, int]] = [
        (load, index) for index, load in enumerate(loads)
    ]
    heapq.heapify(heap)
    assignment: List[List[int]] = [[] for _ in range(buckets)]
    order = sorted(range(len(costs)), key=lambda i: costs[i], reverse=True)
    for item in order:
        load, bucket = heapq.heappop(heap)
        assignment[bucket].append(item)
        heapq.heappush(heap, (load + costs[item], bucket))
    return assignment


@dataclass(frozen=True)
class MultiGPUResult:
    """Modeled multi-GPU run."""

    devices: int
    total_cycles: float
    compute_cycles: float
    exchange_cycles: float
    spec: GPUSpec

    @property
    def modeled_time_s(self) -> float:
        """Charged cycles converted to seconds on this spec."""
        return self.spec.cycles_to_seconds(self.total_cycles)


class MultiGPUEngine:
    """Price a workload across ``devices`` identical GPUs."""

    def __init__(
        self, devices: int, config: Optional[GDroidConfig] = None
    ) -> None:
        if devices < 1:
            raise ValueError("need at least one device")
        self.devices = devices
        self.config = config or GDroidConfig.all_optimizations()

    def analyze(self, workload: AppWorkload) -> MultiGPUResult:
        """Run the model over a built workload."""
        config = self.config
        spec = config.spec
        cost_by_block = workload.block_costs(config)

        compute_cycles = 0.0
        exchange_cycles = 0.0
        for layer_blocks in workload.partition:
            if not layer_blocks:
                continue
            # Partition the layer's blocks across devices (LPT) ...
            priced = [cost_by_block[assignment.block_id] for assignment in layer_blocks]
            placement = lpt_assignment(
                [cost.cycles for cost in priced], self.devices
            )
            per_device: List[List] = [
                [priced[item] for item in items] for items in placement
            ]
            # ... each device schedules its share onto its own SMs; the
            # layer ends when the slowest device finishes.
            layer_makespan = 0.0
            for device_blocks in per_device:
                if not device_blocks:
                    continue
                kernel = schedule_blocks(
                    device_blocks, spec, config.tuning.blocks_per_sm, config.costs
                )
                layer_makespan = max(layer_makespan, kernel.total_cycles)
            compute_cycles += layer_makespan

            if self.devices > 1:
                # All-to-all summary exchange: every device broadcasts
                # its layer's summaries to every peer.
                methods = sum(len(a.methods) for a in layer_blocks)
                bytes_exchanged = methods * SUMMARY_BYTES * (self.devices - 1)
                transfer_s = bytes_exchanged / (INTERCONNECT_GBS * 1e9)
                exchange_cycles += spec.seconds_to_cycles(
                    transfer_s + EXCHANGE_LATENCY_S
                )

        return MultiGPUResult(
            devices=self.devices,
            total_cycles=compute_cycles + exchange_cycles,
            compute_cycles=compute_cycles,
            exchange_cycles=exchange_cycles,
            spec=spec,
        )


def scaling_curve(
    workload: AppWorkload,
    device_counts: Tuple[int, ...] = (1, 2, 4, 8),
    config: Optional[GDroidConfig] = None,
) -> List[MultiGPUResult]:
    """Strong-scaling sweep over device counts."""
    return [
        MultiGPUEngine(devices, config).analyze(workload)
        for devices in device_counts
    ]


def corpus_throughput_cycles(
    app_cycles: List[float], devices: int
) -> float:
    """Makespan of screening a whole corpus across ``devices`` GPUs.

    The deployment the paper motivates (thousands of apps per day) is
    embarrassingly parallel at app granularity: each device takes whole
    apps (LPT), with no cross-device communication at all.  This is
    where multi-GPU pays off, in contrast to the per-app strong-scaling
    limit of :class:`MultiGPUEngine`.
    """
    if devices < 1:
        raise ValueError("need at least one device")
    if not app_cycles:
        return 0.0
    placement = lpt_assignment(list(app_cycles), devices)
    return max(
        sum(app_cycles[item] for item in items) for items in placement
    )
