"""GPU machine description and the calibrated cycle-cost table.

:data:`TESLA_P40` mirrors the paper's evaluation hardware (Section V):
an NVIDIA Tesla P40, Pascal micro-architecture, 30 streaming
multiprocessors with 128 CUDA cores and 48 KB shared memory each, and
24 GB of global memory.

:class:`CostTable` concentrates every cycle constant the simulator
charges.  The constants are *calibrated* (see ``tools/calibrate.py``)
so that the relative results land in the paper's bands; each one is a
mechanistically meaningful quantity (a DRAM round trip, an atomic
device-heap reallocation, a bitmask word operation), not an opaque
fudge factor, and tests assert the orderings that matter (e.g. a
dynamic allocation must dwarf any per-fact arithmetic).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class GPUSpec:
    """Static hardware description of the simulated device."""

    name: str = "NVIDIA Tesla P40"
    sm_count: int = 30
    cores_per_sm: int = 128
    warp_size: int = 32
    clock_ghz: float = 1.303
    global_memory_bytes: int = 24 * 1024**3
    shared_memory_per_sm_bytes: int = 48 * 1024
    #: Memory transaction granularity: one coalesced access serves one
    #: aligned 128-byte segment.
    memory_segment_bytes: int = 128
    #: Host <-> device PCIe 3.0 x16 effective bandwidth.
    pcie_bandwidth_gbs: float = 12.0
    #: Maximum resident thread blocks per SM (occupancy cap).
    max_blocks_per_sm: int = 32

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert device cycles to wall seconds."""
        return cycles / (self.clock_ghz * 1e9)

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert wall seconds to device cycles."""
        return seconds * self.clock_ghz * 1e9


@dataclass(frozen=True)
class CostTable:
    """Cycle costs charged by the simulator.

    Grouped by the bottleneck they model; see DESIGN.md Section 4.
    """

    # --- baseline instruction stream (per node visit) ----------------------
    #: Decode/branch/bookkeeping cycles per processed worklist node.
    node_issue_cycles: float = 60.0
    #: Cycles per generated/propagated fact (register-level work).
    per_fact_cycles: float = 1.0

    # --- bottleneck 1: dynamic device-memory allocation ---------------------
    #: One device-heap reallocation: global barrier on the SM's heap
    #: lock, copy-out, copy-in.  Dominates everything else by design;
    #: on real hardware a device malloc costs tens of microseconds.
    dynamic_alloc_cycles: float = 39000.0
    #: Set-based stores scan their bucket list on every insert batch.
    set_scan_cycles_per_entry: float = 6.0
    #: Writing one fact entry into a set (hash, probe, store).
    set_insert_cycles: float = 24.0

    # --- MAT replacement costs ----------------------------------------------
    #: One bit-matrix entry lookup/update (word-aligned, no probing).
    mat_lookup_cycles: float = 4.0

    # --- bottleneck 2: branch divergence ------------------------------------
    #: Extra serialized pass per additional branch class in a warp.
    divergence_pass_cycles: float = 170.0

    # --- bottleneck 3: load imbalance ----------------------------------------
    #: Fixed cost of issuing one warp (scheduling slot + pipeline
    #: drain); a 4-lane straggler warp pays it just like a full one,
    #: which is why MER's tail postponement helps.
    warp_base_cycles: float = 180.0

    # --- bottleneck 4: memory transactions ----------------------------------
    #: DRAM round-trip latency per 128B transaction (amortized over the
    #: warp's in-flight requests).
    memory_transaction_cycles: float = 48.0
    #: Bytes of node record fetched per visited node (ICFG entry,
    #: statement operands, successor list).
    node_record_bytes: int = 64
    #: Bytes per set-store fact entry touched in global memory.
    set_entry_bytes: int = 16
    #: Bytes per matrix word touched in global memory.
    mat_word_bytes: int = 8

    # --- GRP sorting overhead ------------------------------------------------
    #: Partial bitonic sort: cycles per element per pass; the kernel
    #: charges ``sort_cycles_per_element * n * ceil(log2 n)``.
    sort_cycles_per_element: float = 9.0

    # --- per-iteration fixed overhead -----------------------------------------
    #: __syncthreads + worklist swap at the end of each iteration.
    iteration_sync_cycles: float = 150.0
    #: Worklist pop/insert management per node.
    worklist_op_cycles: float = 10.0
    #: MER merge/dedup cost per merged node.
    merge_op_cycles: float = 12.0

    # --- kernel-level ----------------------------------------------------------
    #: Kernel launch + tear-down overhead.
    kernel_launch_cycles: float = 8000.0
    #: Memory/scheduler contention per resident block beyond the sweet
    #: spot: co-resident blocks fight for DRAM bandwidth and L2, which
    #: is why "empirically 4-5 thread-blocks/SM achieves optimal GPU
    #: utilization" (Section V) rather than the occupancy maximum.
    contention_sweet_spot_blocks: int = 5
    contention_per_extra_block: float = 0.09
    #: Serial per-block staging: the host prepares each block's method
    #: table / matrix descriptors before launch.  This is the cost that
    #: makes grouping 3-4 methods per block pay off once an app has far
    #: more methods than SMs (Section V's manual tuning).
    block_staging_cycles: float = 1500.0

    def scaled(self, **overrides: float) -> "CostTable":
        """A copy with selected constants replaced (ablation studies)."""
        return replace(self, **overrides)


#: The paper's evaluation GPU.
TESLA_P40 = GPUSpec()

#: Default calibrated cost table.
DEFAULT_COSTS = CostTable()
