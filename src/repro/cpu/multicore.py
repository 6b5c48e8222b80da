"""The multithreaded-C CPU counterpart (Fig. 4's baseline).

Models the paper's re-implementation of Amandroid's worklist algorithm
in multithreaded C on the evaluation host: a 10-core Intel Xeon Gold
5115 @ 2.40 GHz with 64 GB RAM.

The model prices the same functional workload the GPU engine executes:

* each method runs a sequential FIFO worklist on one core -- visit
  counts and per-visit fact sizes come from the workload's merging
  trace (a FIFO queue deduplicates naturally, like MER);
* methods of one SBDA layer are scheduled across the cores (LPT);
  layers are barriers, exactly as on the GPU;
* per-visit costs are host-side hash-set operations -- fast, cache-
  friendly, and with cheap ``malloc`` (no device reallocation cliff).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import heapq

from repro.core.engine import AppWorkload


@dataclass(frozen=True)
class CPUSpec:
    """Host hardware description."""

    name: str = "Intel Xeon Gold 5115"
    cores: int = 10
    clock_ghz: float = 2.4
    ram_bytes: int = 64 * 1024**3
    #: Fraction of linear speedup the multithreaded implementation
    #: achieves (synchronization + memory-bandwidth contention).
    parallel_efficiency: float = 0.82

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert device cycles to wall seconds."""
        return cycles / (self.clock_ghz * 1e9)


@dataclass(frozen=True)
class CPUCostTable:
    """Host-side cycle costs, calibrated with ``tools/calibrate.py``.

    These are *effective* per-visit costs of the paper's counterpart --
    a C port of Amandroid's analyzer logic, not an idealized hash-set
    microbenchmark.  Real data-flow engines spend tens of microseconds
    per node visit (megamorphic dispatch, context bookkeeping, pointer-
    chasing fact structures, allocation churn); the constants absorb
    the semantic richness our simplified fact domain does not model,
    so that platform *ratios* (Fig. 4) are meaningful.
    """

    #: Pop, dispatch, transfer-function evaluation per node visit.
    visit_cycles: float = 25000.0
    #: Per fact scanned while building OUT (pointer-chasing sets, DRAM
    #: misses, context tags).
    fact_scan_cycles: float = 480.0
    #: Per fact inserted into a successor set (hash, rebalance,
    #: occasional host realloc).
    fact_insert_cycles: float = 1900.0
    #: Per-method scheduling overhead (task queue, cache warmup).
    method_overhead_cycles: float = 60000.0
    #: Per-layer barrier cost.
    layer_barrier_cycles: float = 50000.0


#: The paper's evaluation host.
XEON_GOLD_5115 = CPUSpec()
DEFAULT_CPU_COSTS = CPUCostTable()


@dataclass
class CPUAnalysisResult:
    """Modeled multithreaded-CPU run of one app."""

    total_cycles: float
    per_layer_cycles: List[float]
    visits: int
    spec: CPUSpec

    @property
    def modeled_time_s(self) -> float:
        """Charged cycles converted to seconds on this spec."""
        return self.spec.cycles_to_seconds(self.total_cycles)


class MulticoreWorklist:
    """Price an :class:`AppWorkload` on the modeled 10-core host."""

    def __init__(
        self,
        spec: CPUSpec = XEON_GOLD_5115,
        costs: CPUCostTable = DEFAULT_CPU_COSTS,
    ) -> None:
        self.spec = spec
        self.costs = costs

    # -- per-method work ------------------------------------------------------------

    def method_cycles(self, workload: AppWorkload) -> Dict[str, float]:
        """Sequential cycles of each method's FIFO worklist run."""
        costs = self.costs
        cycles: Dict[str, float] = {}
        for result in workload.block_results:
            trace = result.trace_mer or result.trace_sync
            arrays = trace.node_arrays
            method_of, methods = arrays.method_index, arrays.methods
            rounds = max(1, trace.summary_rounds)
            for node, in_size, new_facts in zip(
                trace.nodes, trace.in_sizes, trace.new_facts
            ):
                method = methods[method_of[node]]
                work = (
                    costs.visit_cycles
                    + costs.fact_scan_cycles * in_size
                    + costs.fact_insert_cycles * new_facts
                )
                cycles[method] = cycles.get(method, 0.0) + work * rounds
        for method in cycles:
            cycles[method] += costs.method_overhead_cycles
        return cycles

    def total_visits(self, workload: AppWorkload) -> int:
        """Node visits across all blocks."""
        total = 0
        for result in workload.block_results:
            trace = result.trace_mer or result.trace_sync
            total += trace.visit_count * max(1, trace.summary_rounds)
        return total

    # -- scheduling ---------------------------------------------------------------------

    def analyze(self, workload: AppWorkload) -> CPUAnalysisResult:
        """LPT-schedule each layer's methods over the cores."""
        method_cycles = self.method_cycles(workload)
        per_layer: List[float] = []
        efficiency = self.spec.parallel_efficiency
        for layer in workload.layering.layers:
            layer_methods = [
                signature for scc in layer for signature in scc
            ]
            loads = [0.0] * self.spec.cores
            heap = [(0.0, index) for index in range(self.spec.cores)]
            heapq.heapify(heap)
            for signature in sorted(
                layer_methods,
                key=lambda s: -method_cycles.get(s, 0.0),
            ):
                load, index = heapq.heappop(heap)
                load += method_cycles.get(signature, 0.0) / efficiency
                heapq.heappush(heap, (load, index))
            makespan = max(load for load, _ in heap)
            per_layer.append(makespan + self.costs.layer_barrier_cycles)
        return CPUAnalysisResult(
            total_cycles=sum(per_layer),
            per_layer_cycles=per_layer,
            visits=self.total_visits(workload),
            spec=self.spec,
        )
